"""Brute-force estimation of continuous global sensitivity.

The oracle draws adjacent sequence pairs inside a declared scope,
computes the L1 distance of their difference sequences with the exact
evaluators, and reports the maximum together with an attaining pair.
One sampler serves every adjacency and regime (a ``SequenceKind`` value):
it draws a sequence of the regime into operation columns and derives the
partner by one random edit, at any step, that the adjacency allows, and
``check_adjacency`` decides which pairs count.  Sampling is random (seeded
and flagged as such) with a hard pair budget; deterministic hard fixtures
relevant to the queried cell are always mixed in so known-tight
constructions are never missed.

Verdicts against the closed-form sensitivity registry:

* Sound: no sampled pair exceeds its formula value
* Tight: additionally some pair attains the formula exactly
* Violation: a pair exceeds the formula (a test failure upstream)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations
from typing import Iterator

from .errors import (
    BudgetExceeded,
    InvalidUpdate,
    OutOfRange,
    ParameterOutOfRange,
    UnknownCombination,
)
from .functions import EVENT_TARGETS, MONOTONE_FUNCTIONS, GraphFunction
from .generators import adjacent_pair, mst_tightness_pair
from .graphs import (
    EDGE_DEL,
    EDGE_INS,
    NODE_DEL,
    NODE_INS,
    AdjacencyKind,
    DynamicGraph,
    Graph,
    GraphSequence,
    SequenceKind,
    check_adjacency,
    edge_key,
)
from .noise import RandomSource
from .release import exact_values, sensitivity_bound
from .seqio import parse_sequence

Pair = tuple[GraphSequence, GraphSequence]


@dataclass(frozen=True)
class OracleScope:
    n_max: int = 5
    T_max: int = 4
    W_max: int = 1
    D_max: int | None = None
    adjacency: str = "edge"
    regime: str = SequenceKind.INCREMENTAL.value
    max_pairs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 2 or self.T_max < 1 or self.W_max < 1:
            raise OutOfRange("scope bounds must allow at least one pair")
        if self.max_pairs < 1:
            raise BudgetExceeded("pair budget must be >= 1")
        if self.regime not in _REGIME_OPS:
            raise UnknownCombination(f"unknown regime {self.regime!r}")


@dataclass
class OracleResult:
    value: float
    pair: Pair | None
    sampled: bool
    pairs_tested: int


@dataclass
class TableVerdict:
    status: str  # Sound | Tight | Violation
    oracle_value: float
    formula_at_max: float
    pairs_tested: int
    witness: Pair | None = None
    details: dict = field(default_factory=dict)


def diff_sensitivity(f: GraphFunction, a: GraphSequence, b: GraphSequence) -> float:
    """L1 distance between the difference sequences of a and b; the
    histograms of both are padded to their common width."""
    va, vb = exact_values(a, f), exact_values(b, f)
    if len(va) != len(vb):
        raise OutOfRange("pair lengths differ")
    width = max(map(len, va + vb), default=0) if f.name == "degree_histogram" else None

    def diffs(vals: list):
        vecs = [(float(val),) if width is None
                else tuple(map(float, val)) + (0.0,) * (width - len(val)) for val in vals]
        zero = (0.0,) * (1 if width is None else width)
        return [tuple(x - p for x, p in zip(vec, prev))
                for prev, vec in zip([zero] + vecs, vecs)]

    return sum(sum(abs(x - y) for x, y in zip(u, v)) for u, v in zip(diffs(va), diffs(vb)))


# ---- random adjacent pair sampling ----

# the operation kinds a sequence of each regime draws, in apply order
_REGIME_OPS = {
    SequenceKind.INCREMENTAL.value: (NODE_INS, EDGE_INS),
    SequenceKind.DECREMENTAL.value: (EDGE_DEL, NODE_DEL),
    SequenceKind.FULLY_DYNAMIC.value: (EDGE_DEL, NODE_DEL, NODE_INS, EDGE_INS),
}
_NODE_OPS = (NODE_DEL, NODE_INS)

Row = tuple[int, int, int, int]  # one operation (op, x, y, w) of the columns


def _apply(state: DynamicGraph, step: list[Row], row: Row) -> None:
    """Validate one operation on the state, apply it and add it to the step."""
    state._step(*([c] for c in row), 0, 1)
    step.append(row)


def _choices(state: DynamicGraph, kind: int, step: list[Row], n: int, D: int) -> list[Row]:
    """The operations of one kind that are valid next on the state and keep
    degrees within D, with weight 0."""
    adj = state.adj
    if kind == EDGE_DEL:
        return [(kind, a, b, 0) for a, b in sorted(state.edges)]
    if kind == NODE_DEL:
        return [(kind, v, 0, 0) for v in sorted(adj)]
    if kind == NODE_INS:
        return [(kind, v, 0, 0) for v in range(n)
                if v not in adj and (NODE_DEL, v, 0, 0) not in step]
    return [(kind, a, b, 0) for a, b in combinations(sorted(adj), 2)
            if b not in adj[a] and len(adj[a]) < D and len(adj[b]) < D]


def _sequence(initial: Graph, steps: list[list[Row]]) -> GraphSequence:
    """The sequence whose step t holds the operations ``steps[t - 1]``."""
    rows = [row for step in steps for row in sorted(step)]  # sorted is apply order
    op, x, y, w = (list(col) for col in zip(*rows)) if rows else ([], [], [], [])
    return GraphSequence._of(initial, op, x, y, w, list(accumulate(map(len, steps), initial=0)))


def _degrees(seq: GraphSequence) -> Iterator[int]:
    """The largest degree of each of G_0, ..., G_T, in a pass that validates."""
    for g in chain((DynamicGraph(seq.initial),), seq.iter_graphs()):
        yield max(map(len, g.adj.values()), default=0)


def _within(seq: GraphSequence, scope: OracleScope) -> bool:
    """Whether a sequence is valid and inside the scope's regime, T, n and D."""
    if (seq.kind.value != scope.regime or seq.T > scope.T_max
            or max(chain(seq.initial.nodes, seq.x), default=0) >= scope.n_max):
        return False
    try:
        top = max(_degrees(seq))
    except InvalidUpdate:
        return False
    return scope.D_max is None or top <= scope.D_max


def _draw_pair(scope: OracleScope, rng: RandomSource) -> Pair | None:
    """A random sequence of the scope's regime and a partner one random
    adjacent edit away, or None when either falls outside the scope.

    Each of the T <= T_max steps of the sequence, on node ids 0..n_max-1,
    takes up to two edge and one node operation of each kind the regime
    allows, in apply order, each valid on one ``DynamicGraph`` state within D
    and W.  The edit at a random step t* is one the relation allows:

    - edge: add or drop one edge operation at t*, on a key that no later
      step touches, directly or through a node operation on an endpoint;
    - node: add or drop the operation on a node v* at t*, and drop v*'s edge
      operations at t* and every later step (on a coin flip, at the earlier
      steps too); an added deletion takes v*'s edges with it, and an added
      insertion brings edges to random nodes.
    """
    kinds, n = _REGIME_OPS[scope.regime], scope.n_max
    D = scope.D_max if scope.D_max is not None else n

    def weight() -> int:
        return 1 + rng.integers(0, scope.W_max)

    T = 1 + rng.integers(0, scope.T_max)
    # G_0 holds ids 0..n0-1, all of them unless the regime inserts nodes,
    # and each pair of them is an edge with a probability drawn per sequence
    nodes = range(rng.integers(0, n + 1) if NODE_INS in kinds else n)
    density, deg, edges = rng.uniform(), [0] * n, {}
    for a, b in combinations(nodes, 2):
        if rng.uniform() < density and deg[a] < D and deg[b] < D:
            edges[a, b] = weight()
            deg[a], deg[b] = deg[a] + 1, deg[b] + 1
    initial = Graph(nodes, edges, _validate=False)
    state = DynamicGraph(initial)
    t_star = rng.integers(0, T)
    steps: list[list[Row]] = []
    for t in range(T):
        if t == t_star:
            before = Graph(state.nodes, state.edges, _validate=False)  # G_{t*-1}
        steps.append(step := [])
        for kind in kinds:
            for _ in range(rng.integers(0, 2 if kind in _NODE_OPS else 3)):
                rows = _choices(state, kind, step, n, D)
                if not rows:
                    break
                row = rows[rng.integers(0, len(rows))]
                if kind == NODE_DEL:  # a deleted node sheds its edges in the same step
                    for z in sorted(state.adj[row[1]]):
                        _apply(state, step, (EDGE_DEL, *edge_key(row[1], z), 0))
                _apply(state, step, (*row[:3], weight()) if kind == EDGE_INS else row)
        if t == t_star:
            after = Graph(state.nodes, state.edges, _validate=False)  # G_{t*}
    a = _sequence(initial, steps)
    if a.kind.value != scope.regime:
        return None
    edited = [list(step) for step in steps]
    step = edited[t_star]
    if scope.adjacency == "edge":  # drop one of the step's edge operations, or add one
        # (not the deletion of an edge whose endpoint the step deletes)
        rows = [row for row in step if row[0] not in _NODE_OPS and {row[1], row[2]} <= after.nodes]
        if EDGE_DEL in kinds:
            rows += [(EDGE_DEL, p, q, 0) for p, q in sorted(before.edges)
                     if (EDGE_DEL, p, q, 0) not in step]
        if EDGE_INS in kinds:
            rows += [(EDGE_INS, p, q, 0) for p, q in combinations(sorted(after.nodes), 2)
                     if (p, q) not in after.edges]
        # an edit on a key that a later step touches would leave the partner invalid
        later = [row for s in steps[t_star + 1:] for row in s]
        keys = {row[1:3] for row in later if row[0] not in _NODE_OPS}
        busy = {row[1] for row in later if row[0] in _NODE_OPS}
        rows = [row for row in rows if row[1:3] not in keys and busy.isdisjoint(row[1:3])]
        if not rows:
            return None
        row = rows[rng.integers(0, len(rows))]
        if row in step:
            step.remove(row)
        else:
            step.append((*row[:3], weight()) if row[0] == EDGE_INS else row)
    else:
        touched = {row[1] for row in step if row[0] in _NODE_OPS}
        cands = [v for v in range(n)
                 if v in touched or (NODE_DEL if v in before.nodes else NODE_INS) in kinds]
        if not cands:
            return None
        v = cands[rng.integers(0, len(cands))]
        first = t_star if rng.uniform() < 0.5 else 0  # the first step that loses v*'s edges
        for s in edited[first:]:
            s[:] = [row for row in s if row[0] in _NODE_OPS or v not in row[1:3]]
        if v in touched:
            step[:] = [row for row in step if row[0] not in _NODE_OPS or row[1] != v]
        elif v in before.nodes:  # v* goes with the edges it has in the partner's G_{t*-1}
            kept = before.edges if first else initial.edges
            step += [(NODE_DEL, v, 0, 0)] + [(EDGE_DEL, p, q, 0) for p, q in kept if v in (p, q)]
        else:
            step += [(NODE_INS, v, 0, 0)] + [(EDGE_INS, *edge_key(v, z), weight())
                                             for z in sorted(after.nodes) if rng.uniform() < 0.5]
    b = _sequence(initial, edited)
    return (a, b) if _within(b, scope) else None


# Decremental pairs whose differing deletion is not at the last step: a structure
# through the deleted edge (or node) leaves A at t=1 and B at t=2, so it counts twice.
_DECREMENTAL_PAIRS = {
    "edge": ("t=0 +v:0,1,2,3 +e:0-1:1,0-2:1,1-2:1,0-3:1,1-3:1\nt=1 -e:0-1\nt=2 -e:0-2,0-3\n",
             "t=0 +v:0,1,2,3 +e:0-1:1,0-2:1,1-2:1,0-3:1,1-3:1\nt=1\nt=2 -e:0-2,0-3\n"),
    "node": ("t=0 +v:0,1,2,3 +e:0-1:1,0-2:1,0-3:1,1-2:1,2-3:1,1-3:1\n"
             "t=1 -v:0 -e:0-1,0-2,0-3\nt=2 -e:1-2,2-3,1-3\n",
             "t=0 +v:0,1,2,3 +e:0-1:1,0-2:1,0-3:1,1-2:1,2-3:1,1-3:1\n"
             "t=1\nt=2 -e:1-2,2-3,1-3\n"),
}


def _embedded_fixtures(f: GraphFunction, scope: OracleScope) -> list[Pair]:
    """Deterministic hard pairs relevant to the queried cell.

    An incremental scope embeds the incremental tightness pairs, and a
    decremental scope the decremental pair of its adjacency, if it fits."""
    if scope.regime == SequenceKind.DECREMENTAL.value:
        pair = tuple(map(parse_sequence, _DECREMENTAL_PAIRS[scope.adjacency]))
        return [pair] if all(_within(seq, scope) for seq in pair) else []
    if scope.regime != SequenceKind.INCREMENTAL.value:
        return []
    out: list[Pair] = []
    if f.name == "mst_weight" and scope.adjacency == "edge":
        out = [mst_tightness_pair(W) for W in range(1, scope.W_max + 1)]
    target = {name: t for t, name in EVENT_TARGETS.items()
              if name not in MONOTONE_FUNCTIONS}.get(f.name)
    if target is None:
        return out
    sigma = [1] * min(scope.T_max, 3)
    D = scope.D_max if scope.D_max is not None else 4
    if target == "mst":
        kwargs = dict(W=min(scope.W_max, 3))
    elif scope.adjacency == "edge":
        kwargs = dict(W=min(scope.W_max, 3), tau=f.tau, k=f.k)
    elif D <= 3 or (target == "kstar" and f.k != D - 1):
        return out
    else:
        kwargs = dict(D=D, tau=min(f.tau, D - 1) if f.tau else None,
                      k=f.k if f.k == D - 1 else None)
    try:
        pair = adjacent_pair(target, scope.adjacency, sigma, 1, **kwargs)
    except ParameterOutOfRange:  # e.g. no high-degree gadget for tau = 1
        return out
    out.append((pair.a, pair.b))
    return out


def _has_terminals(f: GraphFunction, pair: Pair) -> bool:
    """Whether every graph of both sequences holds the terminals ``f`` has, if any."""
    return f.name != "st_min_cut" or all(
        {f.s, f.t} <= g.nodes for seq in pair for g in chain((seq.initial,), seq.iter_graphs()))


def _pairs(f: GraphFunction, scope: OracleScope) -> Iterator[Pair]:
    """Embedded fixtures, then seeded adjacent draws, within the budget.

    Draws stop once max_pairs pairs have been yielded in all or after
    4 * max_pairs attempts.  A draw whose sequences are not adjacent fails,
    and a fixture or draw where a graph of either sequence lacks a terminal
    of ``f`` is skipped.
    """
    fixtures = [pair for pair in _embedded_fixtures(f, scope) if _has_terminals(f, pair)]
    yield from fixtures
    yielded = len(fixtures)
    rng = RandomSource(scope.seed)
    kind = AdjacencyKind.NODE_EVENT if scope.adjacency == "node" else AdjacencyKind.EDGE_EVENT
    for _ in range(4 * scope.max_pairs):
        if yielded >= scope.max_pairs:
            return
        pair = _draw_pair(scope, rng)
        if (pair is None or check_adjacency(pair[0], pair[1], kind) is None
                or not _has_terminals(f, pair)):
            continue
        yielded += 1
        yield pair


def brute_sensitivity(f: GraphFunction, scope: OracleScope) -> OracleResult:
    """Maximum observed difference-sequence distance within scope."""
    verdict = compare_with_table(f, scope)
    return OracleResult(value=verdict.oracle_value, pair=verdict.witness, sampled=True,
                        pairs_tested=verdict.pairs_tested)


def compare_with_table(f: GraphFunction, scope: OracleScope) -> TableVerdict:
    """Judge the closed-form registry cell against sampled pairs.

    The formula is evaluated per pair at that pair's observed maximum
    degree and weight, since the table constants are parametrized by
    the promised D and W.
    """
    rows = []  # (L1 distance, Gamma at the pair's D and W, pair)
    for pair in _pairs(f, scope):
        val = diff_sensitivity(f, *pair)
        D = max(1, *_degrees(pair[0]), *_degrees(pair[1]))
        W = max(pair[0].max_weight(), pair[1].max_weight())
        rows.append((val, sensitivity_bound(f, scope.adjacency, scope.regime, D=D, W=W), pair))
    value, formula, witness = max(rows, key=lambda row: row[0], default=(0.0, 0.0, None))
    if value == 0:  # no pair differs; the formula is still that of the first tested pair
        witness = None
    if any(val > bound + 1e-9 for val, bound, _ in rows):
        status = "Violation"
    elif any(abs(val - bound) <= 1e-9 and val > 0 for val, bound, _ in rows):
        status = "Tight"
    else:
        status = "Sound"
    ratio = max((val / bound for val, bound, _ in rows if bound > 0), default=0.0)
    return TableVerdict(status, value, formula, len(rows), witness, {"worst_ratio": ratio})
