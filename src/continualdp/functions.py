"""Exact evaluators for every released graph statistic.

These are the ground truth against which noisy releases are judged.
One table, ``STATISTICS``, declares each statistic once: its from-scratch
evaluator, its running value and, for a monotone statistic, its static
sensitivity rho.  ``evaluate``, the release mechanisms, the oracle and the
generators all read it.  The non-trivial evaluators are checked against
independent oracles in ``tests/oracles.py``:

* minimum cut: hand-rolled Stoer-Wagner (vectorized), against networkx
* max weight matching: blossom (networkx), against a bitmask subset DP
* max cardinality matching: Edmonds' blossom search, against the DP
* densest subgraph: table of |E(S)| over every node subset, against
  parametric max-flow

On a ``DynamicGraph`` state, ``evaluate`` keeps a running value of every
statistic but edge count and weighted matching: computed once from
scratch, then updated by each edge or node operation (see ``_Running``).
The monotone ones (the cuts, cardinality matching, densest subgraph) are
kept under edge insertions only; any other operation makes them stale,
and the next ``evaluate`` recomputes them.  ``release.exact_values``
evaluates decremental sequences backward, so they only see insertions.

Conventions fixed here and relied on elsewhere:

* ``mst_weight`` is the minimum spanning FOREST weight; isolated nodes
  contribute 0.
* ``min_cut`` of a disconnected (or <= 1 node) graph is 0.
* ``densest_subgraph`` is the unweighted density max |E(S)| / |S|.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (
    MissingTerminal,
    OutOfRange,
    SizeLimitExceeded,
    UnknownFunction,
)
from .graphs import DynamicGraph, Graph

DENSEST_EXHAUSTIVE_LIMIT = 20

# generator target -> the statistic it drives; the CLI lists the targets
# without loading generators
EVENT_TARGETS = {
    "mst": "mst_weight",
    "min_cut": "min_cut",
    "matching": "max_weight_matching",
    "edge_count": "edge_count",
    "high_degree": "high_degree",
    "degree_histogram": "degree_histogram",
    "triangle": "triangle_count",
    "kstar": "kstar_count",
}


@dataclass(frozen=True)
class GraphFunction:
    """Identifier of a graph statistic with its parameters."""

    name: str
    tau: int | None = None
    k: int | None = None
    s: int | None = None
    t: int | None = None

    def __post_init__(self) -> None:
        if self.name not in STATISTICS:
            raise UnknownFunction(f"unknown graph function {self.name!r}")
        if self.name == "high_degree" and (self.tau is None or self.tau < 1):
            raise OutOfRange("high_degree requires tau >= 1")
        if self.name == "kstar_count" and (self.k is None or self.k < 1):
            raise OutOfRange("kstar_count requires k >= 1")
        if self.name == "st_min_cut":
            if self.s is None or self.t is None or self.s == self.t:
                raise OutOfRange("st_min_cut requires distinct terminals s, t")

    def label(self) -> str:
        if self.name == "high_degree":
            return f"high_degree(tau={self.tau})"
        if self.name == "kstar_count":
            return f"kstar_count(k={self.k})"
        if self.name == "st_min_cut":
            return f"st_min_cut(s={self.s},t={self.t})"
        return self.name


def edge_count(g: Graph) -> int:
    return g.m


def high_degree(g: Graph, tau: int) -> int:
    """Number of nodes with degree >= tau."""
    return sum(1 for d in g.degrees().values() if d >= tau)


def degree_histogram(g: Graph) -> tuple[int, ...]:
    """Counts per degree 0..max degree, () for a graph without nodes;
    entries sum to |V|."""
    degs = g.degrees().values()
    hist = [0] * (1 + max(degs, default=-1))
    for d in degs:
        hist[d] += 1
    return tuple(hist)


def triangle_count(g: Graph) -> int:
    neigh: dict[int, set[int]] = {v: set() for v in g.nodes}
    for u, v in g.edges:
        neigh[u].add(v)
        neigh[v].add(u)
    # each triangle is counted once per edge
    total = sum(len(neigh[u] & neigh[v]) for u, v in g.edges)
    return total // 3


def kstar_count(g: Graph, k: int) -> int:
    """Number of k-stars: sum over nodes of C(deg(v), k)."""
    return sum(math.comb(d, k) for d in g.degrees().values())


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, items) -> None:
        self.parent = {v: v for v in items}

    def find(self, v: int) -> int:
        p = self.parent
        root = v
        while p[root] != root:
            root = p[root]
        while p[v] != root:
            p[v], v = root, p[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _kruskal(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Edges (u, v, w) of a minimum spanning forest."""
    dsu = _DSU(g.nodes)
    for (u, v), w in sorted(g.edges.items(), key=lambda item: item[1]):
        if dsu.union(u, v):
            yield u, v, w


def mst_weight(g: Graph) -> int:
    """Minimum spanning forest weight (Kruskal)."""
    return sum(w for _u, _v, w in _kruskal(g))


def _component(g: Graph) -> set[int]:
    """The connected component of the smallest node of a non-empty graph."""
    dsu = _DSU(g.nodes)
    for u, v in g.edges:
        dsu.union(u, v)
    root = dsu.find(min(g.nodes))
    return {v for v in g.nodes if dsu.find(v) == root}


def _stoer_wagner(weights: np.ndarray) -> tuple[float, list[int]]:
    """Global min cut of a connected weighted graph given as a matrix, with
    the rows of one side of it: the group merged into the last vertex of
    the best phase."""
    n = weights.shape[0]
    w = weights.astype(float).copy()
    alive = list(range(n))
    group = [[i] for i in range(n)]
    best, side = math.inf, group[0]
    while len(alive) > 1:
        # maximum-adjacency phase starting from alive[0]
        sub = w[np.ix_(alive, alive)]
        m = len(alive)
        conn = sub[0].copy()
        conn[0] = -math.inf
        prev_pos = 0
        last_pos = 0
        cut_of_phase = 0.0
        for _ in range(m - 1):
            pos = int(conn.argmax())
            cut_of_phase = conn[pos]
            prev_pos, last_pos = last_pos, pos
            conn += sub[pos]
            conn[pos] = -math.inf
        s, t = alive[prev_pos], alive[last_pos]
        if cut_of_phase < best:
            best, side = float(cut_of_phase), group[t]
        # merge t into s
        group[s] += group[t]
        w[s, :] += w[t, :]
        w[:, s] += w[:, t]
        w[s, s] = 0.0
        alive.remove(t)
    return best, side


def _min_cut_side(g: Graph) -> tuple[float, set[int]]:
    """Global minimum cut with one side S of it; a disconnected graph takes
    one component as S, with value 0."""
    if g.n <= 1:
        return 0.0, set(g.nodes)
    component = _component(g)
    if len(component) < g.n:
        return 0.0, component
    order = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(order)}
    mat = np.zeros((g.n, g.n))
    for (u, v), w in g.edges.items():
        mat[idx[u], idx[v]] = w
        mat[idx[v], idx[u]] = w
    value, side = _stoer_wagner(mat)
    return value, {order[i] for i in side}


def min_cut(g: Graph) -> float:
    """Global minimum cut; 0 for disconnected or trivial graphs."""
    return _min_cut_side(g)[0]


def _st_cut_side(g: Graph, s: int, t: int) -> tuple[float, set[int]]:
    """Minimum s-t cut via max-flow, with its s-side."""
    if s not in g.nodes or t not in g.nodes:
        raise MissingTerminal(f"terminal {s if s not in g.nodes else t} absent")
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(g.nodes)
    for (u, v), w in g.edges.items():
        G.add_edge(u, v, capacity=w)
    value, (side, _t_side) = nx.minimum_cut(G, s, t, capacity="capacity")
    return float(value), side


def st_min_cut(g: Graph, s: int, t: int) -> float:
    """Minimum s-t cut via max-flow; 0 when s and t are disconnected."""
    return _st_cut_side(g, s, t)[0]


def max_weight_matching(g: Graph) -> int:
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(g.nodes)
    G.add_weighted_edges_from((u, v, w) for (u, v), w in g.edges.items())
    mate = nx.max_weight_matching(G, maxcardinality=False)
    return sum(g.edges[(min(u, v), max(u, v))] for u, v in mate)


def _augment(adj, mate: dict[int, int | None], root: int) -> bool:
    """Edmonds' blossom search for an augmenting path from the free vertex
    ``root``; when one exists, flip it into ``mate`` and return True.

    ``adj`` maps every vertex to its neighbours.  Outer vertices are the
    root, the mates of inner vertices and every vertex of a contracted
    blossom; ``parent`` maps an inner vertex to the outer vertex it was
    reached from, and ``base`` each vertex to the base of its blossom.
    """
    base = {v: v for v in adj}
    parent: dict[int, int] = {}
    outer = {root}
    queue = deque([root])

    def common_base(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] is None:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for x in adj[v]:
            if base[v] == base[x] or mate[v] == x:
                continue
            if x == root or mate[x] is not None and mate[x] in parent:
                # x is outer too: the edge closes a blossom
                b = common_base(v, x)
                blossom: set[int] = set()
                mark(v, b, x, blossom)
                mark(x, b, v, blossom)
                for y in adj:
                    if base[y] in blossom:
                        base[y] = b
                        if y not in outer:
                            outer.add(y)
                            queue.append(y)
            elif x not in parent:
                parent[x] = v
                if mate[x] is None:
                    while x is not None:
                        v = parent[x]
                        nxt = mate[v]
                        mate[x], mate[v] = v, x
                        x = nxt
                    return True
                outer.add(mate[x])
                queue.append(mate[x])
    return False


def _max_matching(adj) -> dict[int, int | None]:
    """Maximum cardinality matching as a mate map: a greedy matching, then
    one augmenting-path search per free vertex.  A vertex without an
    augmenting path never gains one by later augmentations (Edmonds), so
    one search each suffices."""
    mate: dict[int, int | None] = dict.fromkeys(adj)
    for a in adj:
        for b in adj[a]:
            if mate[a] is None and mate[b] is None:
                mate[a], mate[b] = b, a
    for v in adj:
        if mate[v] is None:
            _augment(adj, mate, v)
    return mate


def max_cardinality_matching(g: Graph) -> int:
    mate = _max_matching(g.adjacency())
    return sum(x is not None for x in mate.values()) // 2


def densest_subgraph(g: Graph) -> float:
    """max over nonempty S of |E(S)| / |S| (unweighted)."""
    return _SubsetEdges(g).total


class _Running:
    """An exact value kept on a DynamicGraph across its operations.

    It is computed once from scratch; then ``edge`` and ``node`` see each
    single-edge or single-node operation before it changes the graph
    (sign 1 inserts, -1 deletes).  A stale value sees no further
    operations and is recomputed by the next ``evaluate``.
    """

    stale = False
    total = 0

    def node(self, g: DynamicGraph, v: int, sign: int) -> None:
        """An isolated node adds nothing to a count or sum of phi(0) = 0."""

    def value(self, g: DynamicGraph):
        return self.total


class _DegreeSum(_Running):
    """sum over nodes of phi(degree), with phi(0) = 0: k-stars, high degree."""

    def __init__(self, g: DynamicGraph, phi) -> None:
        self.phi = phi
        self.total = sum(phi(d) for d in g.degrees().values())

    def edge(self, g, a, b, w, sign):
        phi = self.phi
        for d in (len(g.adj[a]), len(g.adj[b])):
            self.total += phi(d + sign) - phi(d)


class _Triangles(_Running):
    """An edge {a, b} closes or opens one triangle per common neighbour."""

    def __init__(self, g: DynamicGraph) -> None:
        self.total = triangle_count(g)

    def edge(self, g, a, b, w, sign):
        self.total += sign * len(g.adj[a] & g.adj[b])


class _Histogram(_Running):
    """Node counts per degree, up to the largest degree seen on this state."""

    def __init__(self, g: DynamicGraph) -> None:
        self.hist = list(degree_histogram(g)) or [0]

    def edge(self, g, a, b, w, sign):
        hist = self.hist
        for d in (len(g.adj[a]), len(g.adj[b])):
            hist[d] -= 1
            if d + sign == len(hist):
                hist.append(0)
            hist[d + sign] += 1

    def node(self, g, v, sign):
        self.hist[0] += sign

    def value(self, g):
        hist = self.hist
        end = len(hist)
        while end and not hist[end - 1]:
            end -= 1
        return tuple(hist[:end])


class _SpanningForest(_Running):
    """Minimum spanning forest weight on a kept forest, each tree rooted.

    ``up[v]`` is v's parent with the weight of the edge to it, or None at
    a root.  An inserted edge joins two trees, or closes one cycle whose
    heaviest edge leaves (the cycle property); either way one endpoint's
    tree is re-rooted there and hung from the other.  Deleting a forest
    edge makes the value stale.
    """

    def __init__(self, g: DynamicGraph) -> None:
        self.up: dict[int, tuple[int, int] | None] = dict.fromkeys(g.nodes)
        forest: dict[int, list[tuple[int, int]]] = {v: [] for v in g.nodes}
        for u, v, w in _kruskal(g):
            forest[u].append((v, w))
            forest[v].append((u, w))
            self.total += w
        seen: set[int] = set()
        for root in g.nodes:
            if root in seen:
                continue
            seen.add(root)
            stack = [root]
            while stack:
                x = stack.pop()
                for y, w in forest[x]:
                    if y not in seen:
                        seen.add(y)
                        self.up[y] = (x, w)
                        stack.append(y)

    def edge(self, g, a, b, w, sign):
        up = self.up
        if sign < 0:
            self.stale = up[a] == (b, w) or up[b] == (a, w)
            return
        heaviest = self._heaviest_on_path(a, b)
        if heaviest is not None:
            child, wc = heaviest
            if wc <= w:
                return
            up[child] = None
            self.total -= wc
        # re-root a's tree at a, then hang it from b
        x, link = a, (b, w)
        while True:
            step, up[x] = up[x], link
            if step is None:
                break
            x, link = step[0], (x, step[1])
        self.total += w

    def node(self, g, v, sign):
        if sign > 0:
            self.up[v] = None
        else:
            del self.up[v]

    def _heaviest_on_path(self, a: int, b: int) -> tuple[int, int] | None:
        """(child end, weight) of the heaviest forest edge on the a-b path;
        None when a and b lie in different trees."""
        up = self.up
        # heaviest edge from a up to each of its ancestors
        below: dict[int, tuple[int, int] | None] = {}
        x, best = a, None
        while True:
            below[x] = best
            step = up[x]
            if step is None:
                break
            if best is None or step[1] > best[1]:
                best = (x, step[1])
            x = step[0]
        x, best = b, None
        while x not in below:
            step = up[x]
            if step is None:
                return None
            if best is None or step[1] > best[1]:
                best = (x, step[1])
            x = step[0]
        other = below[x]
        if other is None or (best is not None and best[1] > other[1]):
            return best
        return other


class _Insertions(_Running):
    """A value kept under edge insertions only; deleting an edge and
    inserting or deleting a node make it stale."""

    def edge(self, g, a, b, w, sign):
        if sign > 0:
            self.insert(g, a, b)
        else:
            self.stale = True

    def node(self, g, v, sign):
        self.stale = True


class _Cut(_Insertions):
    """Global (or s-t) minimum cut on a kept side S of a minimum cut.

    Insertions only let every cut grow, so an edge that does not cross S
    leaves the value; one that crosses S makes it stale.
    """

    def __init__(self, g: Graph, s: int | None = None, t: int | None = None) -> None:
        self.total, self.side = _min_cut_side(g) if s is None else _st_cut_side(g, s, t)

    def insert(self, g, a, b):
        self.stale = (a in self.side) != (b in self.side)


class _Matching(_Insertions):
    """Maximum cardinality matching on a kept mate map.

    An inserted edge matches two free endpoints.  Otherwise, unless the
    matching already covers all but at most one node, one augmenting path
    may now exist, and it runs through the new edge: it ends at a free
    endpoint if there is one, else at any free vertex.
    """

    def __init__(self, g: DynamicGraph) -> None:
        self.mate = _max_matching(g.adj)
        self.total = sum(x is not None for x in self.mate.values()) // 2

    def insert(self, g, a, b):
        mate = self.mate
        if mate[a] is None and mate[b] is None:
            mate[a], mate[b] = b, a
            self.total += 1
            return
        if self.total == len(g.nodes) // 2:
            return
        adj = dict(g.adj)  # the graph with the new edge
        adj[a], adj[b] = adj[a] | {b}, adj[b] | {a}
        free = [v for v in (a, b) if mate[v] is None] or [v for v in adj if mate[v] is None]
        if any(_augment(adj, mate, v) for v in free):
            self.total += 1


class _SubsetEdges(_Insertions):
    """Densest subgraph on a table of |E(S)| for every node subset S.

    Bit i of a subset's index is the i-th smallest node.  An inserted edge
    {a, b} adds 1 to every subset holding both, and only those can beat
    the kept optimum.  Counts fit uint8: n <= 20 has at most 190 edges.
    """

    def __init__(self, g: Graph) -> None:
        n = g.n
        if n > DENSEST_EXHAUSTIVE_LIMIT:
            raise SizeLimitExceeded(
                f"exhaustive densest subgraph limited to n <= {DENSEST_EXHAUSTIVE_LIMIT}"
            )
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

    def insert(self, g, a, b):
        idx = self._both(a, b)
        self.count[idx] += 1
        self.total = max(self.total, float((self.count[idx] / self.size[idx]).max()))


class Statistic(NamedTuple):
    """What the library declares about one statistic.

    ``exact(g, f)`` evaluates it from scratch.  ``running(g, f)`` builds
    its running value on a DynamicGraph, or is None where every step
    evaluates from scratch.  ``rho`` is the static edge-level sensitivity
    of a monotone statistic, ``"W"`` (the declared weight bound) or 1, and
    None for one released through difference sequences.  A monotone
    statistic that a node update can lower has ``edge_logs_only``.
    """

    exact: Callable
    running: Callable | None = None
    rho: int | str | None = None
    edge_logs_only: bool = False


STATISTICS = {
    "edge_count": Statistic(lambda g, f: edge_count(g)),
    "high_degree": Statistic(
        lambda g, f: high_degree(g, f.tau),
        lambda g, f: _DegreeSum(g, lambda d: int(d >= f.tau)),
    ),
    "degree_histogram": Statistic(lambda g, f: degree_histogram(g), lambda g, f: _Histogram(g)),
    "triangle_count": Statistic(lambda g, f: triangle_count(g), lambda g, f: _Triangles(g)),
    "kstar_count": Statistic(
        lambda g, f: kstar_count(g, f.k),
        lambda g, f: _DegreeSum(g, lambda d: math.comb(d, f.k)),
    ),
    "mst_weight": Statistic(lambda g, f: mst_weight(g), lambda g, f: _SpanningForest(g)),
    "min_cut": Statistic(lambda g, f: min_cut(g), lambda g, f: _Cut(g), "W", True),
    "st_min_cut": Statistic(
        lambda g, f: st_min_cut(g, f.s, f.t), lambda g, f: _Cut(g, f.s, f.t), "W", True,
    ),
    "max_weight_matching": Statistic(lambda g, f: max_weight_matching(g), None, "W"),
    "max_cardinality_matching": Statistic(
        lambda g, f: max_cardinality_matching(g), lambda g, f: _Matching(g), 1,
    ),
    "densest_subgraph": Statistic(
        lambda g, f: densest_subgraph(g), lambda g, f: _SubsetEdges(g), 1,
    ),
}
FUNCTION_NAMES = frozenset(STATISTICS)
# the statistics released through the monotone SVT mechanism
MONOTONE_FUNCTIONS = frozenset(name for name, s in STATISTICS.items() if s.rho is not None)


def evaluate(f: GraphFunction, g: Graph):
    """The exact value of ``f`` on ``g``.

    Returns a scalar, or for degree_histogram the tuple of counts per
    degree 0..max degree.  On a DynamicGraph every statistic with a
    running value is memoised per ``f`` and kept up to date by the
    state's operations.
    """
    stat = STATISTICS[f.name]
    if stat.running is not None and isinstance(g, DynamicGraph):
        run = g.running.get(f)
        if run is None or run.stale:
            run = g.running[f] = stat.running(g, f)
        return run.value(g)
    return stat.exact(g, f)


def static_sensitivity(f: GraphFunction, W: int | None = None) -> int:
    """Static global sensitivity rho of a monotone statistic over
    edge-adjacent graphs: the declared weight bound W, required, for the
    cuts and weighted matching, and 1 for the others."""
    if W is not None and W < 1:
        raise OutOfRange(f"W must be >= 1, got {W}")
    rho = STATISTICS[f.name].rho
    if rho is None:
        raise UnknownFunction(f"no static sensitivity for {f.name}")
    if rho != "W":
        return rho
    if W is None:
        raise OutOfRange(f"{f.label()} release requires a declared weight bound W")
    return W
