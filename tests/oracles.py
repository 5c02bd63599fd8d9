"""Independent exact evaluators that the production ones in
``continualdp.functions`` are checked against: networkx's Stoer-Wagner
and a numpy Stoer-Wagner for the global minimum cut, networkx's max-flow
for the s-t minimum cut, a bitmask subset DP for both matchings, and
parametric max-flow and a table of |E(S)| over every node subset for the
densest subgraph.  The subset table and the DP take exponential time and
memory, so they refuse graphs above their node limits with a ValueError."""

from __future__ import annotations

import math

from continualdp import Graph
from continualdp.functions import _component

SUBSET_TABLE_LIMIT = 20
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


def st_min_cut_networkx(g: Graph, s: int, t: int) -> float:
    """Minimum s-t cut by networkx max-flow, each edge a capacity both ways."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(g.nodes)
    for (u, v), w in g.edges.items():
        G.add_edge(u, v, capacity=w)
    return float(nx.minimum_cut_value(G, s, t))


def min_cut_side_numpy(g: Graph) -> tuple[float, set[int]]:
    """Global minimum cut with one side S of it, by Stoer-Wagner on a
    float matrix: the same phases, start vertex and first-maximum
    tie-break as ``functions._min_cut_side``, so the same value and side."""
    import numpy as np

    if g.n <= 1:
        return 0.0, set(g.nodes)
    component = _component(g)
    if len(component) < g.n:
        return 0.0, component
    order = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(order)}
    w = np.zeros((g.n, g.n))
    for (u, v), wt in g.edges.items():
        w[idx[u], idx[v]] = w[idx[v], idx[u]] = wt
    alive = list(range(g.n))
    group = [[i] for i in range(g.n)]
    best, side = math.inf, group[0]
    while len(alive) > 1:
        sub = w[np.ix_(alive, alive)]
        conn = sub[0].copy()
        conn[0] = -math.inf
        prev_pos = last_pos = 0
        cut_of_phase = 0.0
        for _ in range(len(alive) - 1):
            pos = int(conn.argmax())
            cut_of_phase = conn[pos]
            prev_pos, last_pos = last_pos, pos
            conn += sub[pos]
            conn[pos] = -math.inf
        s, t = alive[prev_pos], alive[last_pos]
        if cut_of_phase < best:
            best, side = float(cut_of_phase), group[t]
        group[s] += group[t]
        w[s, :] += w[t, :]
        w[:, s] += w[:, t]
        w[s, s] = 0.0
        alive.remove(t)
    return best, {order[i] for i in side}


class SubsetEdges:
    """Densest subgraph on a numpy table of |E(S)| for every node subset S.

    Bit i of a subset's index is the i-th smallest node.  An inserted edge
    {a, b} adds 1 to every subset holding both, and only those can beat
    the kept optimum.  Counts fit uint8: n <= 20 has at most 190 edges.
    """

    def __init__(self, g: Graph) -> None:
        import numpy as np

        n = g.n
        if n > SUBSET_TABLE_LIMIT:
            raise ValueError(f"subset table limited to n <= {SUBSET_TABLE_LIMIT}")
        self.bit = {v: i for i, v in enumerate(sorted(g.nodes))}
        size = np.zeros(1 << n, np.uint8)
        for i in range(n):
            size[1 << i:2 << i] = size[:1 << i] + 1
        # axis n-1-i of the (2,)*n views is bit i
        self.size = size.reshape((2,) * n)
        self.count = np.zeros_like(self.size)
        for a, b in g.edges:
            self.count[self._both(a, b)] += 1
        self.total = float((self.count.ravel()[1:] / size[1:]).max()) if n else 0.0

    def _both(self, a: int, b: int) -> tuple:
        """Index of the subsets holding both a and b."""
        n = len(self.bit)
        idx = [slice(None)] * n
        idx[n - 1 - self.bit[a]] = idx[n - 1 - self.bit[b]] = 1
        return tuple(idx)

    def insert(self, a: int, b: int) -> None:
        """Count the new edge {a, b} between two nodes of the table."""
        idx = self._both(a, b)
        self.count[idx] += 1
        self.total = max(self.total, float((self.count[idx] / self.size[idx]).max()))


def matching_dp(g: Graph, unit: bool) -> int:
    """Exact matching by subset DP over the node set; ``unit`` counts edges."""
    if g.n > MATCHING_DP_LIMIT:
        raise ValueError(f"matching DP limited to n <= {MATCHING_DP_LIMIT}")
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
