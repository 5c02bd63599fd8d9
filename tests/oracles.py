"""Independent exact evaluators that the production ones in
``continualdp.functions`` are checked against: networkx's Stoer-Wagner
for the global minimum cut, a bitmask subset DP for both matchings, and
parametric max-flow for the densest subgraph."""

from __future__ import annotations

from continualdp import Graph
from continualdp.errors import SizeLimitExceeded

MATCHING_DP_LIMIT = 22


def min_cut_networkx(g: Graph) -> float:
    """Global minimum cut by networkx; 0 for disconnected or trivial graphs."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(g.nodes)
    G.add_weighted_edges_from((u, v, w) for (u, v), w in g.edges.items())
    if g.n <= 1 or not nx.is_connected(G):
        return 0.0
    value, _part = nx.stoer_wagner(G)
    return float(value)


def matching_dp(g: Graph, unit: bool) -> int:
    """Exact matching by subset DP over the node set; ``unit`` counts edges."""
    if g.n > MATCHING_DP_LIMIT:
        raise SizeLimitExceeded(f"matching DP limited to n <= {MATCHING_DP_LIMIT}")
    order = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(order)}
    nbr: list[list[tuple[int, int]]] = [[] for _ in order]
    for (u, v), w in g.edges.items():
        wv = 1 if unit else w
        nbr[idx[u]].append((idx[v], wv))
        nbr[idx[v]].append((idx[u], wv))
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1
        res = best(mask & ~(1 << i))
        for j, w in nbr[i]:
            if mask >> j & 1:
                res = max(res, w + best(mask & ~(1 << i) & ~(1 << j)))
        memo[mask] = res
        return res

    return best((1 << len(order)) - 1)


def densest_flow(g: Graph) -> float:
    """Densest subgraph by parametric max-flow (binary search on the density guess)."""
    import networkx as nx

    n, m = g.n, g.m
    if m == 0:
        return 0.0
    deg = g.degrees()
    nodes = sorted(g.nodes)

    def cut_value(guess: float) -> tuple[float, set[int]]:
        G = nx.DiGraph()
        src, snk = "s", "t"
        for v in nodes:
            G.add_edge(src, v, capacity=float(m))
            G.add_edge(v, snk, capacity=m + 2.0 * guess - deg[v])
        for u, v in g.edges:
            G.add_edge(u, v, capacity=1.0)
            G.add_edge(v, u, capacity=1.0)
        value, (side_s, _side_t) = nx.minimum_cut(G, src, snk)
        return value, {v for v in side_s if v != src}

    lo, hi = 0.0, float(m)
    gap = 1.0 / (n * (n + 1))
    best_set: set[int] = set()
    while hi - lo > gap:
        mid = (lo + hi) / 2.0
        value, side = cut_value(mid)
        if value < float(n) * m - 1e-9 and side:
            lo = mid
            best_set = side
        else:
            hi = mid
    if not best_set:
        _value, best_set = cut_value(lo)
    if not best_set:
        return 0.0
    inside = sum(1 for u, v in g.edges if u in best_set and v in best_set)
    return inside / len(best_set)
