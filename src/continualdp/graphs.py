"""Dynamic graph model: graphs, updates, sequences, adjacency relations.

Node identifiers are opaque non-negative integers.  Edge keys are
canonically ordered pairs ``(min(u, v), max(u, v))`` with positive
integer weights; self-loops, multi-edges, negative ids, and node ids and
weights whose type is not ``int`` (``True`` among them) are rejected.  A
weight change is modeled as delete-then-insert of the same key within
one update, so a graph never stores two weights for one edge.

Within a step, deletions apply before insertions:
``V_t = (V_{t-1} \\ v_del) | v_ins`` and likewise for edges.  Deleting
a node requires all of its incident edges to be listed in ``e_del``.

``Update`` puts every edge key in order on construction and is the one
definition of a valid update; an empty ``Update`` field may be one
shared, immutable empty ``frozenset``.  A ``GraphSequence`` holds its
steps 1..T as flat operation columns, with no object per step: ``op``
(one of ``EDGE_DEL``, ``NODE_DEL``, ``NODE_INS``, ``EDGE_INS``), ``x``
(the node id or first endpoint), ``y`` (the second endpoint, 0 for a
node), ``w`` (an inserted edge's weight, else 0), and ``starts``, where
step t's operations are ``starts[t - 1]:starts[t]``, in apply order:
edge deletions, node deletions, node insertions, edge insertions.
The order within one kind is not fixed, so two steps are equal, and two
sequences adjacent, by their sets of operations ``(op, x, y, w)``.
``seq.updates`` builds the same steps as ``Update``s on each read; no
module of the library reads it.
``Graph``, ``Update`` and ``GraphSequence`` are immutable by convention;
operations return new objects and are safe to share read-only across
threads.  ``DynamicGraph`` is the one mutable state: a pass over a
sequence applies each step to it one edge or node at a time.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import abc
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import InvalidUpdate, LengthMismatch

EdgeKey = tuple[int, int]
_EMPTY: frozenset = frozenset()  # shared by every empty Update field


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical unordered key for the edge {u, v}."""
    _check_endpoints(u, v)
    if u == v:
        raise InvalidUpdate(f"self-loop on node {u}")
    if u < 0 or v < 0:
        raise InvalidUpdate(f"negative node id {min(u, v)}")
    return (u, v) if u < v else (v, u)


def _check_endpoints(u: int, v: int) -> None:
    """Refuse an edge endpoint that is not an ``int`` (``True`` among them)."""
    for x in (u, v):
        if type(x) is not int:
            raise InvalidUpdate(f"edge endpoint {x!r} is not an int")


def _check_node_ids(nodes: frozenset) -> None:
    """Refuse a node id that is not a non-negative ``int`` (``True`` among them)."""
    for v in nodes:
        if type(v) is not int:
            raise InvalidUpdate(f"node id {v!r} is not an int")
    if min(nodes, default=0) < 0:
        raise InvalidUpdate(f"negative node id {min(nodes)}")


class Graph:
    """An undirected, integer-weighted graph.

    ``nodes`` is a frozenset of node ids; ``edges`` maps canonical edge
    keys to weights in {1, ..., W}.
    """

    __slots__ = ("nodes", "edges")

    def __init__(
        self,
        nodes: Iterable[int] = (),
        edges: Mapping[EdgeKey, int] | None = None,
        *,
        _validate: bool = True,
    ) -> None:
        self.nodes: frozenset[int] = frozenset(nodes)
        self.edges: dict[EdgeKey, int] = dict(edges or {})
        if _validate:
            self._validate()

    def _validate(self) -> None:
        _check_node_ids(self.nodes)
        for (u, v), w in self.edges.items():
            _check_endpoints(u, v)
            if u >= v:
                raise InvalidUpdate(f"edge key ({u},{v}) not canonical")
            if u not in self.nodes or v not in self.nodes:
                raise InvalidUpdate(f"edge ({u},{v}) has an endpoint outside the node set")
            if type(w) is not int or w < 1:
                raise InvalidUpdate(f"edge ({u},{v}) weight {w!r} is not a positive integer")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int] | tuple[int, int, int]],
        extra_nodes: Iterable[int] = (),
    ) -> "Graph":
        """Build a graph from (u, v) or (u, v, w) tuples; nodes are implied."""
        emap: dict[EdgeKey, int] = {}
        nodes = set(extra_nodes)
        for e in edges:
            u, v = e[0], e[1]
            w = e[2] if len(e) == 3 else 1
            emap[edge_key(u, v)] = w
            nodes.add(u)
            nodes.add(v)
        return cls(nodes, emap)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> dict[int, int]:
        deg = dict.fromkeys(self.nodes, 0)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> dict[int, dict[int, int]]:
        """Neighbor map with edge weights; isolated nodes map to {}."""
        adj: dict[int, dict[int, int]] = {v: {} for v in self.nodes}
        for (u, v), w in self.edges.items():
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def max_weight(self) -> int:
        return max(self.edges.values(), default=1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, frozenset(self.edges.items())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Update:
    """One time step: node/edge deletions followed by insertions."""

    __slots__ = ("v_ins", "v_del", "e_ins", "e_del")

    def __init__(
        self,
        v_ins: Iterable[int] = (),
        v_del: Iterable[int] = (),
        e_ins: Mapping[EdgeKey, int] | Iterable[tuple[int, int, int]] = (),
        e_del: Iterable[EdgeKey] = (),
    ) -> None:
        self.v_ins: frozenset[int] = frozenset(v_ins) if v_ins else _EMPTY
        self.v_del: frozenset[int] = frozenset(v_del) if v_del else _EMPTY
        emap: dict[EdgeKey, int] = {}
        bad_weight = False
        if e_ins:
            if type(e_ins) is not dict and not isinstance(e_ins, abc.Mapping):
                e_ins = {((a, b) if 0 <= a < b else edge_key(a, b)): w for a, b, w in e_ins}
            for k, w in e_ins.items():
                a, b = k
                if type(a) is not int or type(b) is not int or not 0 <= a < b:
                    k = edge_key(a, b)
                if type(w) is not int or w < 1:
                    bad_weight = True
                emap[k] = w
        self.e_ins: dict[EdgeKey, int] = emap
        self.e_del: frozenset[EdgeKey] = _EMPTY
        if e_del:
            keys = []
            for k in e_del:
                a, b = k
                if (type(k) is not tuple or type(a) is not int or type(b) is not int
                        or not 0 <= a < b):
                    k = edge_key(a, b)
                keys.append(k)
            self.e_del = frozenset(keys)
        if self.v_ins & self.v_del:
            raise InvalidUpdate("a node cannot be inserted and deleted in the same step")
        if self.v_ins:
            _check_node_ids(self.v_ins)
        if self.v_del:
            _check_node_ids(self.v_del)
        if bad_weight:  # checked on emap: a later weight for the same key replaces a bad one
            for k, w in emap.items():
                if type(w) is not int or w < 1:
                    raise InvalidUpdate(f"insert of edge {k} with non-positive weight {w!r}")

    @property
    def has_deletions(self) -> bool:
        return bool(self.v_del or self.e_del)

    @property
    def has_insertions(self) -> bool:
        return bool(self.v_ins or self.e_ins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Update):
            return NotImplemented
        return (
            self.v_ins == other.v_ins
            and self.v_del == other.v_del
            and self.e_ins == other.e_ins
            and self.e_del == other.e_del
        )

    def __hash__(self) -> int:
        return hash((self.v_ins, self.v_del, frozenset(self.e_ins.items()), self.e_del))

    def __repr__(self) -> str:
        parts = []
        if self.v_ins:
            parts.append(f"+v{sorted(self.v_ins)}")
        if self.v_del:
            parts.append(f"-v{sorted(self.v_del)}")
        if self.e_ins:
            parts.append(f"+e{sorted(self.e_ins)}")
        if self.e_del:
            parts.append(f"-e{sorted(self.e_del)}")
        return "Update(" + " ".join(parts) + ")"


# operation kinds of a sequence's columns, numbered in apply order
EDGE_DEL, NODE_DEL, NODE_INS, EDGE_INS = range(4)


def _step_bounds(op: list, lo: int, hi: int) -> tuple[int, int, int]:
    """Where node deletions, node insertions and edge insertions start in
    the step ``lo:hi`` of ``op``, whose kinds are sorted."""
    i, j, s = (bisect_left(op, kind, lo, hi) for kind in (NODE_DEL, NODE_INS, EDGE_INS))
    return i, j, s


def _append_ops(op: list, x: list, y: list, w: list, e_del: Iterable[EdgeKey],
                v_del: Iterable[int], v_ins: Iterable[int], e_ins: dict[EdgeKey, int]) -> None:
    """Append the operations of one valid update to columns, in apply order."""
    for a, b in e_del:
        op.append(EDGE_DEL)
        x.append(a)
        y.append(b)
        w.append(0)
    for kind, nodes in ((NODE_DEL, v_del), (NODE_INS, v_ins)):
        for v in nodes:
            op.append(kind)
            x.append(v)
            y.append(0)
            w.append(0)
    for (a, b), weight in e_ins.items():
        op.append(EDGE_INS)
        x.append(a)
        y.append(b)
        w.append(weight)


class DynamicGraph(Graph):
    """A mutable graph state with adjacency sets, changed one edge or node
    at a time.

    ``nodes`` is a set and ``adj`` maps every node to its neighbour set.
    ``running`` holds exact values that ``functions.evaluate`` memoised on
    this state; every edge or node operation passes to each of them that
    is not stale before it changes the graph, so in-step interactions are
    counted against the adjacency at that operation.
    """

    __slots__ = ("adj", "running")

    def __init__(self, g: Graph) -> None:
        self.nodes = set(g.nodes)  # type: ignore[assignment]
        self.edges = dict(g.edges)
        self.adj: dict[int, set[int]] = {v: set() for v in g.nodes}
        for a, b in self.edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.running: dict = {}

    def degrees(self) -> dict[int, int]:
        return {v: len(nbrs) for v, nbrs in self.adj.items()}

    def apply(self, u: Update) -> None:
        """Validate one update and apply it in place: edge deletions, node
        deletions, node insertions, then edge insertions.

        On an error the state may be left part-way through the step.
        """
        cols: tuple[list, list, list, list] = ([], [], [], [])
        _append_ops(*cols, u.e_del, u.v_del, u.v_ins, u.e_ins)
        self._step(*cols, 0, len(cols[0]))

    def _step(self, op: list, x: list, y: list, w: list, lo: int, hi: int) -> None:
        """Validate the operations ``lo:hi`` of the columns, one step in
        apply order, and apply them in place as ``apply`` does."""
        nodes, edges, adj, running = self.nodes, self.edges, self.adj, self.running.values()
        # a step's kinds are sorted, so each kind's first operation is found
        # by bisection: edge deletions lo:i, node deletions i:j, node
        # insertions j:s, edge insertions s:hi
        s = bisect_left(op, EDGE_INS, lo, hi)
        if lo < s:
            i = bisect_left(op, NODE_DEL, lo, s)
            j = bisect_left(op, NODE_INS, i, s)
            if i < j and not nodes.issuperset(x[i:j]):
                raise InvalidUpdate(f"deleting absent nodes {sorted(set(x[i:j]) - nodes)}")
            for e in range(lo, i):
                a, b = k = (x[e], y[e])
                if k not in edges:
                    raise InvalidUpdate(f"deleting absent edge {k}")
                for run in running:
                    if not run.stale:
                        run.edge(self, a, b, edges[k], -1)
                del edges[k]
                adj[a].remove(b)
                adj[b].remove(a)
            if i < j:
                v_del = x[i:j]
                # a deleted node must shed every incident edge in the same step
                kept = [edge_key(v, z) for v in v_del for z in adj[v]]
                if kept:
                    k = min(kept)
                    v = k[0] if k[0] in v_del else k[1]
                    raise InvalidUpdate(f"node {v} deleted while edge {k} survives")
                for v in v_del:
                    self._node(v, -1)
            if j < s:
                if not nodes.isdisjoint(x[j:s]):
                    raise InvalidUpdate(
                        f"inserting already-present nodes {sorted(nodes.intersection(x[j:s]))}")
                for v in x[j:s]:
                    self._node(v, 1)
        for e in range(s, hi):
            a, b = k = (x[e], y[e])
            if k in edges:
                raise InvalidUpdate(f"inserting already-present edge {k}")
            if a not in nodes or b not in nodes:
                raise InvalidUpdate(f"inserting edge {k} with an absent endpoint")
            for run in running:
                if not run.stale:
                    run.edge(self, a, b, w[e], 1)
            edges[k] = w[e]
            adj[a].add(b)
            adj[b].add(a)

    def _node(self, v: int, sign: int) -> None:
        """Insert (sign 1) or delete (sign -1) one isolated node."""
        for run in self.running.values():
            if not run.stale:
                run.node(self, v, sign)
        if sign > 0:
            self.nodes.add(v)
            self.adj[v] = set()
        else:
            self.nodes.remove(v)
            del self.adj[v]


def apply_update(g: Graph, u: Update) -> Graph:
    """Apply one update, validating it against the current graph."""
    state = DynamicGraph(g)
    state.apply(u)
    return Graph(state.nodes, state.edges, _validate=False)


class SequenceKind(str, enum.Enum):
    INCREMENTAL = "incremental"
    DECREMENTAL = "decremental"
    FULLY_DYNAMIC = "fully-dynamic"


class GraphSequence:
    """An initial graph plus T updates, held as flat operation columns
    (see the module docstring); ``updates`` is their ``Update`` view."""

    __slots__ = ("initial", "op", "x", "y", "w", "starts", "kind")

    def __init__(self, initial: Graph, updates: Iterable[Update]) -> None:
        cols: tuple[list, list, list, list] = ([], [], [], [])
        starts = [0]
        for u in updates:
            _append_ops(*cols, u.e_del, u.v_del, u.v_ins, u.e_ins)
            starts.append(len(cols[0]))
        self._set(initial, *cols, starts)

    @classmethod
    def _of(cls, initial: Graph, op: list, x: list, y: list, w: list,
            starts: list) -> "GraphSequence":
        """A sequence over columns whose every step is a valid update in
        apply order, as ``_append_ops`` writes it; the columns are kept."""
        seq = object.__new__(cls)
        seq._set(initial, op, x, y, w, starts)
        return seq

    def _set(self, initial: Graph, op: list, x: list, y: list, w: list,
             starts: list) -> None:
        self.initial = initial
        self.op, self.x, self.y, self.w, self.starts = op, x, y, w, starts
        # the columns are fixed here, so the kind is computed once
        if EDGE_DEL not in op and NODE_DEL not in op:
            self.kind = SequenceKind.INCREMENTAL
        elif EDGE_INS not in op and NODE_INS not in op:
            self.kind = SequenceKind.DECREMENTAL
        else:
            self.kind = SequenceKind.FULLY_DYNAMIC

    @property
    def T(self) -> int:
        return len(self.starts) - 1

    @property
    def updates(self) -> tuple[Update, ...]:
        """The steps as ``Update``s, built from the columns on each read."""
        op, x, y, w = self.op, self.x, self.y, self.w
        updates = []
        for lo, hi in zip(self.starts, self.starts[1:]):
            i, j, s = _step_bounds(op, lo, hi)
            e_ins = dict(zip(zip(x[s:hi], y[s:hi]), w[s:hi]))
            updates.append(Update(x[j:s], x[i:j], e_ins, list(zip(x[lo:i], y[lo:i]))))
        return tuple(updates)

    def _op_sets(self) -> Iterator[set[tuple[int, int, int, int]]]:
        """Each step's operations as a set of ``(op, x, y, w)``."""
        ops = list(zip(self.op, self.x, self.y, self.w))
        return (set(ops[lo:hi]) for lo, hi in zip(self.starts, self.starts[1:]))

    def materialize(self) -> list[Graph]:
        """Graphs G_1..G_T; raises InvalidUpdate with the offending index."""
        return [Graph(g.nodes, g.edges, _validate=False) for g in self.iter_graphs()]

    def iter_graphs(self) -> Iterator[DynamicGraph]:
        """Yield G_1..G_T as one DynamicGraph state, updated in place.

        Each yielded graph is overwritten by the next step; callers that
        need snapshots must use materialize().  This keeps long releases
        free of per-step copying, and lets ``functions.evaluate`` keep
        running values on the state.
        """
        state = DynamicGraph(self.initial)
        step, op, x, y, w, starts = state._step, self.op, self.x, self.y, self.w, self.starts
        for t in range(1, len(starts)):
            try:
                step(op, x, y, w, starts[t - 1], starts[t])
            except InvalidUpdate as exc:
                raise InvalidUpdate(f"at t={t}: {exc}") from exc
            yield state

    def validate(self) -> None:
        for _ in self.iter_graphs():
            pass

    def max_weight(self) -> int:
        return max(self.initial.max_weight(), max(self.w, default=0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSequence):
            return NotImplemented
        return self.initial == other.initial and list(self._op_sets()) == list(other._op_sets())

    def __repr__(self) -> str:
        return f"GraphSequence(T={self.T}, kind={self.kind.value})"


def reversed_sequence(seq: GraphSequence) -> GraphSequence:
    """Play a sequence backwards, swapping insertions and deletions.

    The reverse of an incremental sequence is decremental and vice
    versa; weights of re-inserted edges are recovered in one forward
    pass, which also validates the sequence.  A step's operations are in
    apply order, so the reversed columns are the columns read backwards
    with each kind swapped for its opposite.
    """
    op, x, y, w, starts = seq.op, seq.x, seq.y, seq.w, seq.starts
    weight = dict(seq.initial.edges)  # latest inserted weight of every key
    deleted = [0] * len(op)  # the weight each edge deletion removes
    last = seq.initial
    for lo, hi, last in zip(starts, starts[1:], seq.iter_graphs()):
        # the step has just been applied, so each key it deletes has a weight
        for i in range(lo, hi):
            if op[i] == EDGE_DEL:
                deleted[i] = weight[x[i], y[i]]
            elif op[i] == EDGE_INS:
                weight[x[i], y[i]] = w[i]
    n = len(op)
    return GraphSequence._of(
        Graph(last.nodes, last.edges, _validate=False),
        [EDGE_INS - kind for kind in reversed(op)],
        x[::-1],
        y[::-1],
        deleted[::-1],
        [n - s for s in reversed(starts)],
    )


class AdjacencyKind(str, enum.Enum):
    EDGE_EVENT = "edge-event"
    NODE_EVENT = "node-event"
    EDGE_USER = "edge-user"


class AdjacencyWitness(NamedTuple):
    kind: AdjacencyKind
    element: EdgeKey | int
    t_star: int | None = None


def check_adjacency(
    a: GraphSequence, b: GraphSequence, kind: AdjacencyKind | str
) -> AdjacencyWitness | None:
    """Witness that (a, b) satisfy the requested adjacency relation.

    Returns None for non-adjacent pairs; identical sequences are never
    adjacent.  Both sequences must share the initial graph.  The pair is
    read through the operations in which each step differs:

    - edge-event: exactly one, and it is an edge operation;
    - node-event: the node operations, at least one, all name one node v*
      at one step, and every edge operation, at any step, is incident to v*;
    - edge-user: no node operation, and all name one edge key.
    """
    kind = AdjacencyKind(kind)
    if a.T != b.T:
        raise LengthMismatch(f"sequence lengths differ: {a.T} vs {b.T}")
    if a.initial != b.initial:
        return None
    diff = [(t, d) for t, (p, q) in enumerate(zip(a._op_sets(), b._op_sets()), 1)
            for d in p ^ q]
    nodes = {(t, x) for t, (op, x, _, _) in diff if op in (NODE_DEL, NODE_INS)}
    if kind is AdjacencyKind.EDGE_EVENT:
        if len(diff) == 1 and not nodes:
            ((t, (_, x, y, _)),) = diff
            return AdjacencyWitness(kind, (x, y), t)
    elif kind is AdjacencyKind.NODE_EVENT:
        if len(nodes) == 1:
            ((t, v),) = nodes
            # a node operation in diff names v, so only edges can miss it
            if all(v == x or v == y for _, (_, x, y, _) in diff):
                return AdjacencyWitness(kind, v, t)
    elif not nodes:
        keys = {(x, y) for _, (_, x, y, _) in diff}
        if len(keys) == 1:
            return AdjacencyWitness(kind, keys.pop())
    return None
