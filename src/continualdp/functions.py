"""Exact evaluators for every released graph statistic.

These are the ground truth against which noisy releases are judged.
One table, ``STATISTICS``, declares each statistic once: its from-scratch
evaluator, its running value and, for a monotone statistic, its static
sensitivity rho.  ``evaluate``, the release mechanisms, the oracle and the
generators all read it.  The non-trivial evaluators are checked against
independent oracles in ``tests/oracles.py``:

* minimum cut: hand-rolled Stoer-Wagner on integer rows, against
  networkx and a numpy Stoer-Wagner with the same phases
* s-t minimum cut: integer max-flow (``_max_flow``), against networkx
* max weight matching: blossom (networkx), against a bitmask subset DP
* max cardinality matching: Edmonds' blossom search, against the DP
* densest subgraph: Dinkelbach steps on Goldberg's network by the same
  max-flow, against parametric max-flow and a table of |E(S)| over every
  node subset

None of them imports numpy, so neither does a monotone release; only
weighted matching imports networkx.

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
import sys
from collections import deque
from operator import add
from typing import Callable, Iterator, NamedTuple

from .errors import (
    MissingTerminal,
    OutOfRange,
    ParameterOutOfRange,
    UnknownFunction,
)
from .graphs import DynamicGraph, Graph

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


class _GraphFunction(NamedTuple):
    name: str
    tau: int | None = None
    k: int | None = None
    s: int | None = None
    t: int | None = None


class GraphFunction(_GraphFunction):
    """Identifier of a graph statistic with its parameters."""

    __slots__ = ()

    def __new__(cls, name: str, tau: int | None = None, k: int | None = None,
                s: int | None = None, t: int | None = None) -> GraphFunction:
        if name not in STATISTICS:
            raise UnknownFunction(f"unknown graph function {name!r}")
        if name == "high_degree" and (tau is None or tau < 1):
            raise OutOfRange("high_degree requires tau >= 1")
        if name == "kstar_count" and (k is None or k < 1):
            raise OutOfRange("kstar_count requires k >= 1")
        if name == "st_min_cut":
            if s is None or t is None or s == t:
                raise OutOfRange("st_min_cut requires distinct terminals s, t")
        return super().__new__(cls, name, tau, k, s, t)

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


def _stoer_wagner(w: list[list[int]]) -> tuple[int, list[int]]:
    """Global min cut of a connected weighted graph given as symmetric
    integer rows, which it consumes, with the rows of one side of it: the
    group merged into the last vertex of the best phase.

    Each phase grows from the first live row and takes the first row of
    largest connectivity; merging drops the merged-away row and column.
    """
    alive = list(range(len(w)))
    group = [[i] for i in alive]
    # a row already taken in a phase reads below every live connectivity,
    # however much it gains from the rest of the phase
    taken = -sum(map(sum, w)) - 1
    best, side = math.inf, group[0]
    while len(alive) > 1:
        # maximum-adjacency phase starting from alive[0]
        conn = list(w[0])
        conn[0] = taken
        prev = last = 0
        cut_of_phase = 0
        for _ in range(len(alive) - 1):
            cut_of_phase = max(conn)
            pos = conn.index(cut_of_phase)
            prev, last = last, pos
            conn = list(map(add, conn, w[pos]))
            conn[pos] = taken
        if cut_of_phase < best:
            best, side = cut_of_phase, group[alive[last]]
        # merge the last row into the one before it
        group[alive[prev]] += group[alive[last]]
        merged = w[prev] = list(map(add, w[prev], w[last]))
        merged[prev] = 0
        for row, x in zip(w, merged):
            row[prev] = x
        del w[last], alive[last]
        for row in w:
            del row[last]
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
    rows = [[0] * g.n for _ in order]
    for (u, v), w in g.edges.items():
        rows[idx[u]][idx[v]] = rows[idx[v]][idx[u]] = w
    value, side = _stoer_wagner(rows)
    if value > sys.float_info.max:
        raise ParameterOutOfRange("cut value is too large for a float")
    return float(value), {order[i] for i in side}


def min_cut(g: Graph) -> float:
    """Global minimum cut; 0 for disconnected or trivial graphs."""
    return _min_cut_side(g)[0]


def _st_cut_side(g: Graph, s: int, t: int) -> tuple[float, set[int]]:
    """Minimum s-t cut by max-flow, with the s-side nearest s."""
    if s not in g.nodes or t not in g.nodes:
        raise MissingTerminal(f"terminal {s if s not in g.nodes else t} absent")
    order = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(order)}
    adj = g.adjacency()
    arcs = [[idx[x] for x in adj[v]] for v in order]
    cap = [[0] * g.n for _ in order]
    for (u, v), w in g.edges.items():
        cap[idx[u]][idx[v]] = cap[idx[v]][idx[u]] = w
    value, side = _max_flow(cap, arcs, idx[s], idx[t])
    if value > sys.float_info.max:
        raise ParameterOutOfRange("cut value is too large for a float")
    return float(value), {order[i] for i in side}


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
    return _Density(g).value(g)


def _densest(g: Graph, start) -> tuple[int, set[int]]:
    """(|E(S)|, S) for a densest node set S, by Dinkelbach steps from the
    node set ``start``, non-empty unless ``g`` has no nodes.

    With p / q the density of the current set, each step finds an S
    maximizing q·|E(S)| - p·|S| as the source side of a minimum cut in
    Goldberg's network.  That network joins the source to each node v with
    capacity q·m, v to the sink with q·m + 2p - q·deg(v), and both ends of
    each edge with q; here every source-v-sink path is saturated first,
    which leaves v one arc of capacity |q·deg(v) - 2p|, from the source
    where that is positive and to the sink otherwise.  The maximum is then
    (sum of the source arcs - minimum cut) / 2; a positive one makes S
    denser than the current set, and zero proves the current set densest.
    """
    order = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    nbr: list[list[int]] = [[] for _ in order]
    for u, v in g.edges:
        nbr[idx[u]].append(idx[v])
        nbr[idx[v]].append(idx[u])
    source, sink = n, n + 1
    side = {idx[v] for v in start}
    while True:
        p = sum(j in side for i in side for j in nbr[i]) // 2
        q = len(side)
        cap = [[0] * (n + 2) for _ in range(n + 2)]
        arcs = [list(js) for js in nbr] + [[], []]
        gain = 0
        for i, js in enumerate(nbr):
            row = cap[i]
            for j in js:
                row[j] = q
            excess = q * len(js) - 2 * p
            if excess > 0:
                cap[source][i] = excess
                gain += excess
                end = source
            else:
                row[sink] = -excess
                end = sink
            arcs[i].append(end)
            arcs[end].append(i)
        flow, cut = _max_flow(cap, arcs, source, sink)
        if flow == gain:
            return p, {order[i] for i in side}
        side = cut - {source}


def _max_flow(cap: list[list[int]], arcs: list[list[int]], source: int,
              sink: int) -> tuple[int, set[int]]:
    """Maximum flow by shortest augmenting paths on a dense capacity
    matrix, which it leaves as the residual, with the source side of the
    minimum cut nearest the source: the nodes the source still reaches.
    ``arcs[u]`` lists every v with an arc u-v either way."""
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in arcs[u]:
                if v not in parent and cap[u][v]:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow, set(parent)
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        sent = min(cap[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            cap[u][v] -= sent
            cap[v][u] += sent
        flow += sent


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


class _Density(_Insertions):
    """Densest subgraph on a kept densest node set S* with p = |E(S*)|.

    Insertions only let densities grow, so after one S* is still a good
    start: the next ``value`` resumes the Dinkelbach steps from it.
    """

    grown = False

    def __init__(self, g: Graph) -> None:
        self.p, self.side = _densest(g, g.nodes)

    def insert(self, g, a, b):
        self.grown = True

    def value(self, g):
        if self.grown:
            self.p, self.side = _densest(g, self.side)
            self.grown = False
        return self.p / (len(self.side) or 1)


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
        lambda g, f: densest_subgraph(g), lambda g, f: _Density(g), 1,
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
    if W > sys.float_info.max:
        raise ParameterOutOfRange("W is too large for a float; declare a smaller W")
    return W
