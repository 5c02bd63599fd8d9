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

``Update`` puts every edge key in order on construction; a key that is
already an ordered pair of ``int`` is kept as given, in ``e_ins`` and
``e_del`` alike, so the parser's one tuple per edge serves the whole
log.  An empty ``Update`` field may be one shared, immutable empty
``frozenset``.  ``Update(...)`` is the one definition of a valid update;
two builders whose fields are valid by construction fill the slots
through ``Update._canonical`` without checking them again: the log
parser, for a line with no node field whose keys and weights are already
canonical, and ``reversed_sequence``, whose fields come from updates it
has just replayed.
``Graph``, ``Update`` and ``GraphSequence`` are immutable by convention;
operations return new objects and are safe to share read-only across
threads.  ``DynamicGraph`` is the one mutable state: a pass over a
sequence applies each update to it one edge or node at a time.
"""

from __future__ import annotations

import enum
from collections import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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

    @classmethod
    def _canonical(
        cls,
        e_ins: dict[EdgeKey, int],
        e_del: Iterable[EdgeKey],
        v_ins: frozenset[int] = _EMPTY,
        v_del: frozenset[int] = _EMPTY,
    ) -> "Update":
        """The update ``Update(v_ins, v_del, e_ins, e_del)`` would build,
        with no copy and no check.

        Precondition: every key of ``e_ins`` and ``e_del`` is an ordered
        pair ``(a, b)`` of ``int`` with ``0 <= a < b``; every weight is an
        ``int`` of at least 1; ``e_ins`` is a dict no one else holds,
        which the update keeps; ``v_ins`` and ``v_del`` are disjoint
        frozensets of non-negative ``int``, each ``_EMPTY`` when empty.
        """
        u = object.__new__(cls)
        u.v_ins = v_ins
        u.v_del = v_del
        u.e_ins = e_ins
        u.e_del = frozenset(e_del) if e_del else _EMPTY
        return u

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
        nodes, edges, adj = self.nodes, self.edges, self.adj
        running = self.running.values()
        if not u.v_del <= nodes:
            raise InvalidUpdate(f"deleting absent nodes {sorted(u.v_del - nodes)}")
        for k in u.e_del:
            if k not in edges:
                raise InvalidUpdate(f"deleting absent edge {k}")
            a, b = k
            for run in running:
                if not run.stale:
                    run.edge(self, a, b, edges[k], -1)
            del edges[k]
            adj[a].remove(b)
            adj[b].remove(a)
        if u.v_del:
            # a deleted node must shed every incident edge in the same step
            kept = [edge_key(v, x) for v in u.v_del for x in adj[v]]
            if kept:
                k = min(kept)
                v = k[0] if k[0] in u.v_del else k[1]
                raise InvalidUpdate(f"node {v} deleted while edge {k} survives")
            for v in u.v_del:
                self._node(v, -1)
        if not u.v_ins.isdisjoint(nodes):
            raise InvalidUpdate(f"inserting already-present nodes {sorted(u.v_ins & nodes)}")
        for v in u.v_ins:
            self._node(v, 1)
        for k, w in u.e_ins.items():
            if k in edges:
                raise InvalidUpdate(f"inserting already-present edge {k}")
            a, b = k
            if a not in nodes or b not in nodes:
                raise InvalidUpdate(f"inserting edge {k} with an absent endpoint")
            for run in running:
                if not run.stale:
                    run.edge(self, a, b, w, 1)
            edges[k] = w
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
    """An initial graph plus an ordered list of T updates."""

    __slots__ = ("initial", "updates", "kind")

    def __init__(self, initial: Graph, updates: Iterable[Update]) -> None:
        self.initial = initial
        self.updates: tuple[Update, ...] = tuple(updates)
        # the updates are fixed here, so the kind is computed once
        if not any(u.v_del or u.e_del for u in self.updates):
            self.kind = SequenceKind.INCREMENTAL
        elif not any(u.v_ins or u.e_ins for u in self.updates):
            self.kind = SequenceKind.DECREMENTAL
        else:
            self.kind = SequenceKind.FULLY_DYNAMIC

    @property
    def T(self) -> int:
        return len(self.updates)

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
        for t, u in enumerate(self.updates, start=1):
            try:
                state.apply(u)
            except InvalidUpdate as exc:
                raise InvalidUpdate(f"at t={t}: {exc}") from exc
            yield state

    def validate(self) -> None:
        for _ in self.iter_graphs():
            pass

    def max_weight(self) -> int:
        inserted = [max(u.e_ins.values()) for u in self.updates if u.e_ins]
        return max([self.initial.max_weight(), *inserted])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSequence):
            return NotImplemented
        return self.initial == other.initial and self.updates == other.updates

    def __repr__(self) -> str:
        return f"GraphSequence(T={self.T}, kind={self.kind.value})"


def reversed_sequence(seq: GraphSequence) -> GraphSequence:
    """Play a sequence backwards, swapping insertions and deletions.

    The reverse of an incremental sequence is decremental and vice
    versa; weights of re-inserted edges are recovered in one forward
    pass.
    """
    weight = dict(seq.initial.edges)  # latest inserted weight of every key
    last = seq.initial
    rev: list[Update] = []
    for u, last in zip(seq.updates, seq.iter_graphs()):
        # u was valid and has just been applied, so its fields swapped
        # meet the precondition of Update._canonical
        rev.append(
            Update._canonical(
                {k: weight[k] for k in u.e_del}, u.e_ins.keys(), v_ins=u.v_del, v_del=u.v_ins
            )
        )
        weight.update(u.e_ins)
    return GraphSequence(Graph(last.nodes, last.edges, _validate=False), rev[::-1])


class AdjacencyKind(str, enum.Enum):
    EDGE_EVENT = "edge-event"
    NODE_EVENT = "node-event"
    EDGE_USER = "edge-user"


@dataclass(frozen=True)
class AdjacencyWitness:
    kind: AdjacencyKind
    element: EdgeKey | int
    t_star: int | None = None


def _edge_event_witness(a: GraphSequence, b: GraphSequence) -> AdjacencyWitness | None:
    diffs = [t for t in range(a.T) if a.updates[t] != b.updates[t]]
    if len(diffs) != 1:
        return None
    t = diffs[0]
    ua, ub = a.updates[t], b.updates[t]
    if ua.v_ins != ub.v_ins or ua.v_del != ub.v_del:
        return None
    if ua.e_del == ub.e_del:
        extra = set(ua.e_ins.items()) ^ set(ub.e_ins.items())
        if len(extra) == 1:
            (key, _w), = extra
            # shared keys must agree exactly, so the lone differing key
            # appears in one sequence only
            if key not in ua.e_ins or key not in ub.e_ins:
                return AdjacencyWitness(AdjacencyKind.EDGE_EVENT, key, t + 1)
        return None
    if ua.e_ins == ub.e_ins:
        extra_del = ua.e_del ^ ub.e_del
        if len(extra_del) == 1:
            (key,) = extra_del
            return AdjacencyWitness(AdjacencyKind.EDGE_EVENT, key, t + 1)
    return None


def _node_event_witness(a: GraphSequence, b: GraphSequence) -> AdjacencyWitness | None:
    node_diffs = [
        t
        for t in range(a.T)
        if a.updates[t].v_ins != b.updates[t].v_ins
        or a.updates[t].v_del != b.updates[t].v_del
    ]
    if len(node_diffs) != 1:
        return None
    t = node_diffs[0]
    ua, ub = a.updates[t], b.updates[t]
    cand = (ua.v_ins ^ ub.v_ins) | (ua.v_del ^ ub.v_del)
    if len(cand) != 1:
        return None
    (v_star,) = cand
    # every edge-update difference, at any time, must be an edge
    # incident to v_star; filtering those edges must equalize the pair
    for t2 in range(a.T):
        u1, u2 = a.updates[t2], b.updates[t2]
        f1 = {k: w for k, w in u1.e_ins.items() if v_star not in k}
        f2 = {k: w for k, w in u2.e_ins.items() if v_star not in k}
        if f1 != f2:
            return None
        d1 = {k for k in u1.e_del if v_star not in k}
        d2 = {k for k in u2.e_del if v_star not in k}
        if d1 != d2:
            return None
    return AdjacencyWitness(AdjacencyKind.NODE_EVENT, v_star, t + 1)


def _edge_user_witness(a: GraphSequence, b: GraphSequence) -> AdjacencyWitness | None:
    touched: set[EdgeKey] = set()
    any_diff = False
    for t in range(a.T):
        ua, ub = a.updates[t], b.updates[t]
        if ua == ub:
            continue
        any_diff = True
        if ua.v_ins != ub.v_ins or ua.v_del != ub.v_del:
            return None
        for key, _w in set(ua.e_ins.items()) ^ set(ub.e_ins.items()):
            touched.add(key)
        touched |= ua.e_del ^ ub.e_del
        if len(touched) > 1:
            return None
    if not any_diff or len(touched) != 1:
        return None
    (e_star,) = touched
    return AdjacencyWitness(AdjacencyKind.EDGE_USER, e_star)


def check_adjacency(
    a: GraphSequence, b: GraphSequence, kind: AdjacencyKind | str
) -> AdjacencyWitness | None:
    """Witness that (a, b) satisfy the requested adjacency relation.

    Returns None for non-adjacent pairs; identical sequences are never
    adjacent.  Both sequences must share the initial graph.
    """
    kind = AdjacencyKind(kind)
    if a.T != b.T:
        raise LengthMismatch(f"sequence lengths differ: {a.T} vs {b.T}")
    if a.initial != b.initial:
        return None
    if kind is AdjacencyKind.EDGE_EVENT:
        return _edge_event_witness(a, b)
    if kind is AdjacencyKind.NODE_EVENT:
        return _node_event_witness(a, b)
    return _edge_user_witness(a, b)
