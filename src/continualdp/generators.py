"""Adversarial sequence generators with closed-form expected values.

Each event-level generator maps a binary stream sigma to a graph
sequence whose target statistic equals a closed form in the running
bit-sum, so exact evaluators can be tested against generators and vice
versa.  Flipping one bit of sigma yields an adjacent sequence, giving
hard fixtures for sensitivity testing.  The module also houses the
user-level phase construction, spread witness families, and the
fixture pairs certifying unbounded sensitivity cells.

Closed forms (S_t = sigma(1) + ... + sigma(t)):

* mst,       edge adjacency: W * S_t + T
* mst,       node adjacency: W * S_t
* min_cut,   both:           W * S_t
* matching,  edge adjacency: W * S_t + W * T
* matching,  node adjacency: W * S_t
* counting reductions, edge: S_t
* counting reductions, node: D * S_t

For degree_histogram the closed form refers to the degree-2 bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ParameterOutOfRange,
    NodeSetMismatch,
    SparedEdgeMissing,
    TooSmall,
)
from .functions import EVENT_TARGETS, GraphFunction, evaluate
from .graphs import (
    AdjacencyKind,
    AdjacencyWitness,
    EdgeKey,
    Graph,
    GraphSequence,
    Update,
    check_adjacency,
    edge_key,
)

COUNTING_TARGETS = frozenset(
    {"edge_count", "high_degree", "degree_histogram", "triangle", "kstar"}
)

HYPERCUBE_T_LIMIT = 14


def _check_sigma(sigma: Sequence[int]) -> list[int]:
    bits = list(sigma)
    if not bits:
        raise ParameterOutOfRange("sigma must be non-empty")
    if any(b not in (0, 1) for b in bits):
        raise ParameterOutOfRange("sigma must contain only 0/1")
    return bits


def target_function(
    target: str, *, tau: int | None = None, k: int | None = None
) -> GraphFunction:
    """The evaluator matching a generator target; only high_degree takes
    ``tau`` and only kstar_count ``k``."""
    try:
        name = EVENT_TARGETS[target]
    except KeyError:
        raise ParameterOutOfRange(f"unknown target {target!r}") from None
    return GraphFunction(name, tau=tau if name == "high_degree" else None,
                         k=k if name == "kstar_count" else None)


# ---- MST constructions ----


def _mst_edge(sigma: list[int], W: int) -> GraphSequence:
    T = len(sigma)
    # unit path on 0..T; chords get weight W and never enter the forest
    init = Graph(
        nodes=range(2 * T + 2),
        edges={(i - 1, i): 1 for i in range(1, T + 1)},
    )
    chords = [
        (i, j) for i in range(T + 1) for j in range(i + 2, T + 1)
    ]
    updates = []
    for t in range(1, T + 1):
        e_ins: dict[EdgeKey, int] = {}
        if t - 1 < len(chords):
            e_ins[chords[t - 1]] = W
        if sigma[t - 1]:
            e_ins[(T + t, T + t + 1)] = W
        updates.append(Update(e_ins=e_ins))
    return GraphSequence(init, updates)


def _mst_node(sigma: list[int], W: int) -> GraphSequence:
    # v0 = 0, u_t = 2t-1, v_t = 2t
    init = Graph(nodes={0})
    updates = []
    for t, bit in enumerate(sigma, start=1):
        if bit:
            updates.append(
                Update(v_ins={2 * t - 1, 2 * t}, e_ins={(0, 2 * t): W})
            )
        else:
            updates.append(Update(v_ins={2 * t - 1}))
    return GraphSequence(init, updates)


# ---- min cut constructions ----


def _hypercube_edges(d: int, W: int) -> dict[EdgeKey, int]:
    edges: dict[EdgeKey, int] = {}
    for v in range(1 << d):
        for i in range(d):
            u = v ^ (1 << i)
            if u > v:
                edges[(v + 1, u + 1)] = W
    return edges


def _cut_edge(sigma: list[int], W: int) -> GraphSequence:
    T = len(sigma)
    if T > HYPERCUBE_T_LIMIT:
        raise ParameterOutOfRange(
            f"hypercube construction limited to T <= {HYPERCUBE_T_LIMIT}"
        )
    d = T + 1
    # node 0 is the isolated apex; hypercube vector b maps to id 1 + b
    init = Graph(nodes=range((1 << d) + 1), edges=_hypercube_edges(d, W))
    mask = (1 << T) - 1
    updates = []
    for t in range(1, T + 1):
        b_t = 1 + t
        b_hat = 1 + (mask ^ t) + (1 << T)
        e_ins = {(b_t, b_hat): W}  # b_t <= T + 1 < b_hat
        if sigma[t - 1]:
            e_ins[(0, b_t)] = W
        updates.append(Update(e_ins=e_ins))
    return GraphSequence(init, updates)


def _cut_node(sigma: list[int], W: int) -> GraphSequence:
    # u_j = 2j, v_j = 2j + 1
    init = Graph(nodes={0, 1})
    updates = []
    present_v = [1]
    for t, bit in enumerate(sigma, start=1):
        u_t = 2 * t
        v_ins = {u_t}
        e_ins = {(2 * j, u_t): W for j in range(t)}  # earlier ids are below u_t, v_t
        if bit:
            v_t = 2 * t + 1
            v_ins.add(v_t)
            for v_j in present_v:
                e_ins[(v_j, v_t)] = W
            e_ins[(0, v_t)] = W
            present_v.append(v_t)
        updates.append(Update(v_ins=v_ins, e_ins=e_ins))
    return GraphSequence(init, updates)


# ---- matching constructions ----


def _match_edge(sigma: list[int], W: int) -> GraphSequence:
    T = len(sigma)
    # u_i = i, v_i = 2T + i, i in 1..2T; crossed perfect matching keeps
    # the max weight matching pinned at W*T whatever unit edges arrive
    init = Graph(
        nodes=range(1, 4 * T + 1),
        edges={
            (i, 2 * T + (i % T) + 1): W for i in range(1, T + 1)
        },
    )
    updates = []
    for t in range(1, T + 1):
        e_ins = {(t, 2 * T + t): 1}
        if sigma[t - 1]:
            e_ins[(T + t, 3 * T + t)] = W
        updates.append(Update(e_ins=e_ins))
    return GraphSequence(init, updates)


def _match_node(sigma: list[int], W: int) -> GraphSequence:
    T = len(sigma)
    # v_i = i, u_t = T + t, v'_t = 2T + t
    init = Graph(nodes=range(1, T + 1))
    updates = []
    for t, bit in enumerate(sigma, start=1):
        if bit:
            updates.append(
                Update(v_ins={T + t, 2 * T + t}, e_ins={(t, 2 * T + t): W})
            )
        else:
            updates.append(Update(v_ins={T + t}))
    return GraphSequence(init, updates)


# ---- counting reductions, edge adjacency ----


def _count_edge(target: str, sigma: list[int], tau: int | None, k: int | None) -> GraphSequence:
    T = len(sigma)
    if target == "edge_count":
        init = Graph(nodes=range(1, 2 * T + 1))
        updates = [
            Update(e_ins={(2 * t - 1, 2 * t): 1}) if bit else Update()
            for t, bit in enumerate(sigma, start=1)
        ]
        return GraphSequence(init, updates)

    if target in {"high_degree", "kstar"}:
        size = tau if target == "high_degree" else k
        if size is None or size < 2:
            raise ParameterOutOfRange(f"{target} reduction requires parameter >= 2")
        # T star gadgets: center, size-1 leaves, one detached leaf
        nodes = []
        edges: dict[EdgeKey, int] = {}
        updates = []
        stride = size + 2
        for t in range(1, T + 1):
            base = t * stride
            center = base
            nodes.extend(range(base, base + stride))
            for leaf in range(base + 1, base + size):
                edges[edge_key(center, leaf)] = 1
            missing = edge_key(center, base + size)
            updates.append(
                Update(e_ins={missing: 1}) if sigma[t - 1] else Update()
            )
        return GraphSequence(Graph(nodes, edges), updates)

    if target in {"degree_histogram", "triangle"}:
        nodes = []
        edges = {}
        updates = []
        for t in range(1, T + 1):
            a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
            nodes.extend((a, b, c))
            edges[edge_key(b, c)] = 1
            if target == "triangle":
                edges[edge_key(a, b)] = 1
                missing = edge_key(a, c)
            else:
                missing = edge_key(a, b)
            updates.append(
                Update(e_ins={missing: 1}) if sigma[t - 1] else Update()
            )
        return GraphSequence(Graph(nodes, edges), updates)

    raise ParameterOutOfRange(f"unknown counting target {target!r}")


# ---- counting reductions, node adjacency ----


def _count_node(
    target: str, sigma: list[int], D: int, tau: int | None, k: int | None
) -> GraphSequence:
    T = len(sigma)
    if D is None or D <= 3:
        raise ParameterOutOfRange("node-level counting reductions require D > 3")

    nodes: list[int] = []
    edges: dict[EdgeKey, int] = {}
    updates: list[Update] = []
    stride = 4 * D + 4  # id room per gadget group

    if target in {"high_degree", "kstar"}:
        if target == "high_degree":
            size = tau
            if size is None or not 1 <= size <= D - 1:
                raise ParameterOutOfRange("node reduction requires 1 <= tau <= D-1")
        else:
            size = k
            if size != D - 1:
                raise ParameterOutOfRange("node reduction requires k = D-1")
        # per group: D-1 stars with size-1 leaves each, then v_t
        stride = max(stride, (D - 1) * size + 1)
        for t in range(1, T + 1):
            base = t * stride
            centers = []
            nid = base
            for _ in range(D - 1):
                center = nid
                centers.append(center)
                nodes.append(center)
                nid += 1
                for _ in range(size - 1):
                    nodes.append(nid)
                    edges[edge_key(center, nid)] = 1
                    nid += 1
            v_t = base + stride - 1
            if sigma[t - 1]:
                updates.append(
                    Update(v_ins={v_t}, e_ins={edge_key(v_t, c): 1 for c in centers})
                )
            else:
                updates.append(Update())
        return GraphSequence(Graph(nodes, edges), updates)

    if target == "degree_histogram":
        # per group: D disjoint edges; v_t hits one endpoint of each
        for t in range(1, T + 1):
            base = t * stride
            hits = []
            for j in range(D):
                a, b = base + 2 * j, base + 2 * j + 1
                nodes.extend((a, b))
                edges[edge_key(a, b)] = 1
                hits.append(a)
            v_t = base + stride - 1
            if sigma[t - 1]:
                updates.append(
                    Update(v_ins={v_t}, e_ins={(a, v_t): 1 for a in hits})
                )
            else:
                updates.append(Update())
        return GraphSequence(Graph(nodes, edges), updates)

    if target == "edge_count":
        for t in range(1, T + 1):
            base = t * stride
            group = list(range(base, base + D))
            nodes.extend(group)
            v_t = base + stride - 1
            if sigma[t - 1]:
                updates.append(
                    Update(v_ins={v_t}, e_ins={(a, v_t): 1 for a in group})
                )
            else:
                updates.append(Update())
        return GraphSequence(Graph(nodes, edges), updates)

    if target == "triangle":
        # per group: a D-cycle; v_t joins every cycle node
        for t in range(1, T + 1):
            base = t * stride
            cycle = list(range(base, base + D))
            nodes.extend(cycle)
            for j in range(D):
                edges[edge_key(cycle[j], cycle[(j + 1) % D])] = 1
            v_t = base + stride - 1
            if sigma[t - 1]:
                updates.append(
                    Update(v_ins={v_t}, e_ins={(a, v_t): 1 for a in cycle})
                )
            else:
                updates.append(Update())
        return GraphSequence(Graph(nodes, edges), updates)

    raise ParameterOutOfRange(f"unknown counting target {target!r}")


def gen_event_level(
    target: str,
    adjacency: str,
    sigma: Sequence[int],
    *,
    W: int = 1,
    D: int | None = None,
    tau: int | None = None,
    k: int | None = None,
) -> GraphSequence:
    """Generate the lower-bound sequence for a target and bit stream."""
    bits = _check_sigma(sigma)
    if target not in EVENT_TARGETS:
        raise ParameterOutOfRange(f"unknown target {target!r}")
    if adjacency not in ("edge", "node"):
        raise ParameterOutOfRange(f"unknown adjacency {adjacency!r}")
    if W < 1:
        raise ParameterOutOfRange(f"W must be >= 1, got {W}")
    if target == "mst":
        return _mst_edge(bits, W) if adjacency == "edge" else _mst_node(bits, W)
    if target == "min_cut":
        return _cut_edge(bits, W) if adjacency == "edge" else _cut_node(bits, W)
    if target == "matching":
        return _match_edge(bits, W) if adjacency == "edge" else _match_node(bits, W)
    if adjacency == "edge":
        return _count_edge(target, bits, tau, k)
    return _count_node(target, bits, D, tau, k)


def expected_values(
    target: str,
    adjacency: str,
    sigma: Sequence[int],
    *,
    W: int = 1,
    D: int | None = None,
) -> list[int]:
    """Closed-form target values per step, as documented in the module
    docstring (degree_histogram: the degree-2 bin)."""
    bits = _check_sigma(sigma)
    T = len(bits)
    out = []
    running = 0
    for bit in bits:
        running += bit
        if target == "mst":
            out.append(W * running + T if adjacency == "edge" else W * running)
        elif target == "min_cut":
            out.append(W * running)
        elif target == "matching":
            out.append(W * running + W * T if adjacency == "edge" else W * running)
        elif target in COUNTING_TARGETS:
            if adjacency == "edge":
                out.append(running)
            else:
                if D is None:
                    raise ParameterOutOfRange("node-level closed form needs D")
                out.append(D * running)
        else:
            raise ParameterOutOfRange(f"unknown target {target!r}")
    return out


@dataclass(frozen=True)
class AdversarialPair:
    a: GraphSequence
    b: GraphSequence
    witness: AdjacencyWitness
    expected_a: list[int]
    expected_b: list[int]
    target: GraphFunction


def adjacent_pair(
    target: str,
    adjacency: str,
    sigma: Sequence[int],
    flip_index: int,
    *,
    W: int = 1,
    D: int | None = None,
    tau: int | None = None,
    k: int | None = None,
) -> AdversarialPair:
    """Generate the pair for sigma and sigma-with-one-bit-flipped."""
    bits = _check_sigma(sigma)
    if not 1 <= flip_index <= len(bits):
        raise ParameterOutOfRange(f"flip_index {flip_index} outside [1, {len(bits)}]")
    flipped = list(bits)
    flipped[flip_index - 1] ^= 1
    kwargs = dict(W=W, D=D, tau=tau, k=k)
    a = gen_event_level(target, adjacency, bits, **kwargs)
    b = gen_event_level(target, adjacency, flipped, **kwargs)
    kind = AdjacencyKind.EDGE_EVENT if adjacency == "edge" else AdjacencyKind.NODE_EVENT
    witness = check_adjacency(a, b, kind)
    if witness is None:
        raise ParameterOutOfRange(
            f"generated pair for {target}/{adjacency} is not {kind.value}-adjacent"
        )
    return AdversarialPair(
        a=a,
        b=b,
        witness=witness,
        expected_a=expected_values(target, adjacency, bits, W=W, D=D),
        expected_b=expected_values(target, adjacency, flipped, W=W, D=D),
        target=target_function(target, tau=tau, k=k),
    )


# ---- user-level phase construction ----


def trans(g1: Graph, g2: Graph) -> list[Update]:
    """Minimum edge-update sequence from g1 to g2 (same node set).

    Deletions of E(g1) \\ E(g2) first, then insertions, each a single
    edge, all in canonical order.
    """
    if g1.nodes != g2.nodes:
        raise NodeSetMismatch("transformation requires identical node sets")
    updates = []
    for key in sorted(set(g1.edges) - set(g2.edges)):
        updates.append(Update(e_del={key}))
    for key in sorted(set(g2.edges) - set(g1.edges)):
        updates.append(Update(e_ins={key: g2.edges[key]}))
    # weight changes count as delete + insert
    for key in sorted(set(g1.edges) & set(g2.edges)):
        if g1.edges[key] != g2.edges[key]:
            updates.insert(0, Update(e_del={key}))
            updates.append(Update(e_ins={key: g2.edges[key]}))
    return updates


def gen_user_level(
    g1: Graph, g2: Graph, spared: EdgeKey, bits: Sequence[int]
) -> GraphSequence:
    """Phase construction encoding a bit string into a sequence.

    Phases have length 2*ell with ell = |trans(g1, g2)| (required even).
    Phase i transforms forward (g1 -> g2) when i is even, backward when
    odd; bit 0 puts the transformation in the first half and ell toggles
    of the spared edge in the second half, bit 1 swaps the halves.
    """
    spared = edge_key(*spared)
    if spared not in g1.edges or spared not in g2.edges:
        raise SparedEdgeMissing(f"spared edge {spared} must be in both graphs")
    if g1.edges[spared] != g2.edges[spared]:
        raise SparedEdgeMissing("spared edge must keep its weight")
    bits = _check_sigma(bits)
    forward = trans(g1, g2)
    backward = trans(g2, g1)
    ell = len(forward)
    if ell == 0:
        raise ParameterOutOfRange("g1 and g2 must differ")
    if ell % 2:
        raise ParameterOutOfRange(f"transformation length {ell} must be even")
    if any(spared in u.e_del or spared in u.e_ins for u in forward):
        raise SparedEdgeMissing("spared edge may not appear in the transformation")

    updates: list[Update] = []
    spared_present = True
    weight = g1.edges[spared]

    def toggles() -> list[Update]:
        nonlocal spared_present
        out = []
        if not spared_present:
            raise SparedEdgeMissing("phase would start toggling from an absent edge")
        for _ in range(ell):
            if spared_present:
                out.append(Update(e_del={spared}))
            else:
                out.append(Update(e_ins={spared: weight}))
            spared_present = not spared_present
        return out

    for i, bit in enumerate(bits):
        moves = forward if i % 2 == 0 else backward
        if bit == 0:
            updates.extend(moves)
            updates.extend(toggles())
        else:
            updates.extend(toggles())
            updates.extend(moves)
    seq = GraphSequence(g1, updates)
    seq.validate()
    return seq


@dataclass(frozen=True)
class SpreadSpec:
    g1: Graph
    g2: Graph
    s: float
    ell: int
    spared_edge: EdgeKey


def spread_of(f: GraphFunction, n: int, W: int = 1) -> SpreadSpec:
    """Concrete witness family with value gap s and even path length ell."""
    if n < 4:
        raise TooSmall("spread families require n >= 4")
    if W < 1:
        raise ParameterOutOfRange(f"W must be >= 1, got {W}")
    nodes = range(n)
    spared = (0, 1)

    if f.name == "mst_weight":
        # heavy star at 0 vs unit star at 1; both keep the unit edge 0-1
        g1 = Graph(nodes, {spared: 1, **{(0, j): W for j in range(2, n)}})
        g2 = Graph(nodes, {spared: 1, **{(1, j): 1 for j in range(2, n)}})
    elif f.name == "min_cut":
        cyc = {edge_key(i, (i + 1) % n): W for i in range(n)}
        g1 = Graph(nodes, cyc)
        extra = {(0, 2): W} if (n - 1) % 2 else {}
        g2 = Graph(nodes, {edge_key(*spared): W, **extra})
    elif f.name in {"max_cardinality_matching", "max_weight_matching"}:
        w = W if f.name == "max_weight_matching" else 1
        pairs = {(2 * i, 2 * i + 1): w for i in range(n // 2)}
        pairs[spared] = w
        g1 = Graph(nodes, pairs)
        n_extra = 2 if (n // 2 - 1) % 2 == 0 else 1
        star = {(0, j): 1 for j in range(2, 2 + n_extra)}
        g2 = Graph(nodes, {spared: w, **star})
    else:
        raise TooSmall(f"no spread family for {f.name}")

    v1 = float(evaluate(f, g1))
    v2 = float(evaluate(f, g2))
    s = abs(v1 - v2)
    ell = len(trans(g1, g2))
    if s <= 0:
        raise TooSmall("witness family collapsed to zero gap")
    return SpreadSpec(g1=g1, g2=g2, s=s, ell=ell, spared_edge=edge_key(*spared))


# ---- sensitivity fixtures: tightness and unbounded cells ----


def mst_tightness_pair(W: int) -> tuple[GraphSequence, GraphSequence]:
    """Edge-adjacent T=3 pair on three nodes whose MST difference sequences
    are exactly 2W apart in L1, the table's edge-level Gamma.

    A inserts (0,1) of weight W, then (1,2) and (0,2) of weight 1; B skips
    the first insert.  A's forest weight runs W, W+1, 2 and B's 0, 1, 2:
    the heavy edge adds W, then leaves the cycle closed by (0,2).
    """
    if W < 1:
        raise ParameterOutOfRange(f"W must be >= 1, got {W}")
    init = Graph(range(3))
    rest = [Update(e_ins={(1, 2): 1}), Update(e_ins={(0, 2): 1})]
    return (GraphSequence(init, [Update(e_ins={(0, 1): W}), *rest]),
            GraphSequence(init, [Update(), *rest]))


def _alternating(T: int, on: Update, off: Update, first: Update) -> list[Update]:
    """first at t=1, then off/on alternating (off at even t)."""
    out = [first]
    for t in range(2, T + 1):
        out.append(off if t % 2 == 0 else on)
    return out


def _star_toggle_pair(T: int, node_level: bool) -> tuple[GraphSequence, GraphSequence]:
    """Degree toggling around a 3-star missing two leaves.

    Used for high_degree (tau=3) and degree_histogram in the fully
    dynamic regime.
    """
    if node_level:
        init = Graph({0, 3}, {(0, 3): 1})
        ins1 = Update(v_ins={1}, e_ins={(0, 1): 1})
        ins2 = Update(v_ins={2}, e_ins={(0, 2): 1})
        both = Update(v_ins={1, 2}, e_ins={(0, 1): 1, (0, 2): 1})
        off = Update(v_del={2}, e_del={(0, 2)})
    else:
        init = Graph({0, 1, 2, 3}, {(0, 3): 1})
        ins1 = Update(e_ins={(0, 1): 1})
        ins2 = Update(e_ins={(0, 2): 1})
        both = Update(e_ins={(0, 1): 1, (0, 2): 1})
        off = Update(e_del={(0, 2)})
    seq_a = GraphSequence(init, _alternating(T, ins2, off, both))
    seq_b = GraphSequence(init, _alternating(T, ins2, off, ins2))
    return seq_a, seq_b


def _triangle_toggle_pair(T: int, node_level: bool) -> tuple[GraphSequence, GraphSequence]:
    """Triangle completion toggling (fully dynamic triangle / k-star)."""
    if node_level:
        init = Graph({0})
        ins1 = Update(v_ins={1}, e_ins={(0, 1): 1})
        both = Update(v_ins={1, 2}, e_ins={(0, 1): 1, (0, 2): 1, (1, 2): 1})
        only2_first = Update(v_ins={2}, e_ins={(0, 2): 1})
        on_a = Update(v_ins={2}, e_ins={(0, 2): 1, (1, 2): 1})
        on_b = Update(v_ins={2}, e_ins={(0, 2): 1})
        off_a = Update(v_del={2}, e_del={(0, 2), (1, 2)})
        off_b = Update(v_del={2}, e_del={(0, 2)})
        seq_a = GraphSequence(init, _alternating(T, on_a, off_a, both))
        seq_b = GraphSequence(init, _alternating(T, on_b, off_b, only2_first))
        return seq_a, seq_b
    init = Graph({0, 1, 2}, {(0, 2): 1})
    both = Update(e_ins={(0, 1): 1, (1, 2): 1})
    on = Update(e_ins={(1, 2): 1})
    off = Update(e_del={(1, 2)})
    seq_a = GraphSequence(init, _alternating(T, on, off, both))
    seq_b = GraphSequence(init, _alternating(T, on, off, on))
    return seq_a, seq_b


def _edge_count_node_pair(T: int) -> tuple[GraphSequence, GraphSequence]:
    init = Graph(set())
    both = Update(v_ins={1, 2}, e_ins={(1, 2): 1})
    only2 = Update(v_ins={2})
    on_a = Update(v_ins={2}, e_ins={(1, 2): 1})
    off_a = Update(v_del={2}, e_del={(1, 2)})
    on_b = Update(v_ins={2})
    off_b = Update(v_del={2})
    seq_a = GraphSequence(init, _alternating(T, on_a, off_a, both))
    seq_b = GraphSequence(init, _alternating(T, on_b, off_b, only2))
    return seq_a, seq_b


def _mst_fd_pair(T: int, W: int, node_level: bool) -> tuple[GraphSequence, GraphSequence]:
    if W < 3:
        raise ParameterOutOfRange(f"fully dynamic MST fixture needs W >= 3, got {W}")
    nodes = [0, 1, 2, 10, 11, 12]
    edges = {(0, 1): 1, (1, 2): 1, (10, 11): 1, (11, 12): 1, (0, 10): W}
    init = Graph(nodes, edges)
    if node_level:
        star = Update(v_ins={20}, e_ins={(1, 20): 1, (11, 20): 1})
        on = Update(v_ins={21}, e_ins={(2, 21): 1, (12, 21): W - 2})
        off = Update(v_del={21}, e_del={(2, 21), (12, 21)})
    else:
        star = Update(e_ins={(1, 11): 1})
        on = Update(e_ins={(2, 12): W - 1})
        off = Update(e_del={(2, 12)})
    updates_a = [star]
    updates_b = [Update()]
    for t in range(2, T + 1):
        u = on if t % 2 == 0 else off
        updates_a.append(u)
        updates_b.append(u)
    return GraphSequence(init, updates_a), GraphSequence(init, updates_b)


def _min_cut_pd_pair(T: int, W: int, node_level: bool) -> tuple[GraphSequence, GraphSequence]:
    """Incremental pair with min-cut difference sequences T apart.

    Three cliques A, B, C of T+2 nodes; the A-B and B-C cuts start at
    weights 1 and 2 and alternate growing by W.
    """
    if W < 3:
        raise ParameterOutOfRange(f"min-cut fixture needs W >= 3, got {W}")
    size = T + 2
    A = list(range(0, size))
    B = list(range(100, 100 + size))
    C = list(range(200, 200 + size))
    edges: dict[EdgeKey, int] = {}
    for block in (A, B, C):
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                edges[edge_key(u, v)] = W
    edges[edge_key(A[-1], B[-1])] = 1
    edges[edge_key(B[-1], C[-1])] = 2
    init = Graph(A + B + C, edges)

    def ab_insert(t: int, seqs_nodes: list[int]) -> Update:
        if node_level:
            new = 300 + t
            e_ins = {edge_key(new, B[t]): W}
            for a in A + seqs_nodes:
                e_ins[edge_key(new, a)] = W
            seqs_nodes.append(new)
            return Update(v_ins={new}, e_ins=e_ins)
        return Update(e_ins={edge_key(A[t], B[t]): W})

    primed_a: list[int] = []
    primed_b: list[int] = []
    updates_a = [ab_insert(0, primed_a)]
    updates_b = [Update()]
    for t in range(2, T + 1):
        if t % 2 == 0:
            updates_a.append(ab_insert(t, primed_a))
            updates_b.append(ab_insert(t, primed_b))
        else:
            u = Update(e_ins={edge_key(B[t], C[t]): W})
            updates_a.append(u)
            updates_b.append(u)
    return GraphSequence(init, updates_a), GraphSequence(init, updates_b)


def _matching_pd_pair(T: int, node_level: bool) -> tuple[GraphSequence, GraphSequence]:
    """Incremental growing path whose matching parity never agrees."""
    if node_level:
        init = Graph({1})
        updates_a = [Update(v_ins={0}, e_ins={(0, 1): 1})]
        updates_b = [Update()]
        for t in range(2, T + 1):
            u = Update(v_ins={t}, e_ins={(t - 1, t): 1})
            updates_a.append(u)
            updates_b.append(u)
    else:
        init = Graph(range(T + 1))
        updates_a = [Update(e_ins={(0, 1): 1})]
        updates_b = [Update()]
        for t in range(2, T + 1):
            u = Update(e_ins={(t - 1, t): 1})
            updates_a.append(u)
            updates_b.append(u)
    return GraphSequence(init, updates_a), GraphSequence(init, updates_b)


def unbounded_pair(
    f: GraphFunction,
    adjacency: str,
    T: int,
    *,
    W: int = 3,
) -> tuple[GraphSequence, GraphSequence]:
    """Adjacent pair realizing an Unbounded sensitivity cell.

    The difference sequences of the returned pair are at least T apart
    in L1 for the named function; fully dynamic for the local counting
    functions and MST, incremental for min cut and matchings.
    """
    if T < 1:
        raise ParameterOutOfRange(f"T must be >= 1, got {T}")
    node_level = adjacency == "node"
    name = f.name
    if name in {"high_degree", "degree_histogram"}:
        return _star_toggle_pair(T, node_level)
    if name in {"triangle_count", "kstar_count"}:
        return _triangle_toggle_pair(T, node_level)
    if name == "edge_count":
        if not node_level:
            raise ParameterOutOfRange("fully dynamic edge count is bounded at edge level")
        return _edge_count_node_pair(T)
    if name == "mst_weight":
        return _mst_fd_pair(T, W, node_level)
    if name == "min_cut":
        return _min_cut_pd_pair(T, W, node_level)
    if name in {"max_weight_matching", "max_cardinality_matching"}:
        return _matching_pd_pair(T, node_level)
    raise ParameterOutOfRange(f"no unbounded fixture for {name}")
