"""Brute-force estimation of continuous global sensitivity.

The oracle draws adjacent sequence pairs inside a declared scope,
computes the L1 distance of their difference sequences with the exact
evaluators, and reports the maximum together with an attaining pair.
Sampling is random (seeded and flagged as such) with a hard pair
budget; deterministic hard fixtures relevant to the queried cell are
always mixed in so known-tight constructions are never missed.

Verdicts against the closed-form sensitivity registry:

* Sound: no sampled pair exceeds its formula value
* Tight: additionally some pair attains the formula exactly
* Violation: a pair exceeds the formula (a test failure upstream)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

from .errors import BudgetExceeded, InvalidUpdate, OutOfRange, ParameterOutOfRange
from .functions import EVENT_TARGETS, MONOTONE_FUNCTIONS, GraphFunction
from .generators import adjacent_pair, mst_tightness_pair
from .graphs import (
    AdjacencyKind,
    Graph,
    GraphSequence,
    Update,
    check_adjacency,
    edge_key,
)
from .noise import RandomSource
from .release import exact_values, sensitivity_bound

Pair = tuple[GraphSequence, GraphSequence]


@dataclass(frozen=True)
class OracleScope:
    n_max: int = 5
    T_max: int = 4
    W_max: int = 1
    D_max: int | None = None
    adjacency: str = "edge"
    regime: str = "partially-dynamic"
    max_pairs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 2 or self.T_max < 1 or self.W_max < 1:
            raise OutOfRange("scope bounds must allow at least one pair")
        if self.max_pairs < 1:
            raise BudgetExceeded("pair budget must be >= 1")


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


def _fresh_pool(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _random_initial(
    n: int, scope: OracleScope, rng: RandomSource, density: float
) -> tuple[Graph, dict[tuple[int, int], int]]:
    D = scope.D_max
    deg = [0] * n
    edges: dict[tuple[int, int], int] = {}
    for e in _fresh_pool(n):
        if rng.uniform() < density and (D is None or (deg[e[0]] < D and deg[e[1]] < D)):
            edges[e] = 1 + rng.integers(0, scope.W_max)
            deg[e[0]] += 1
            deg[e[1]] += 1
    return Graph(range(n), edges), edges


def _sample_edge_incremental(scope: OracleScope, rng: RandomSource) -> Pair | None:
    n = 2 + rng.integers(0, scope.n_max - 1)
    T = 1 + rng.integers(0, scope.T_max)
    D = scope.D_max
    pool = _fresh_pool(n)
    deg = [0] * n
    for i in range(len(pool) - 1, 0, -1):
        j = rng.integers(0, i + 1)
        pool[i], pool[j] = pool[j], pool[i]

    def degree_ok(e: tuple[int, int]) -> bool:
        return D is None or (deg[e[0]] < D and deg[e[1]] < D)

    initial = Graph(range(n))
    updates: list[Update] = []
    for _ in range(T):
        e_ins: dict[tuple[int, int], int] = {}
        for _ in range(rng.integers(0, 3)):
            if pool and degree_ok(pool[-1]):
                e = pool.pop()
                e_ins[e] = 1 + rng.integers(0, scope.W_max)
                deg[e[0]] += 1
                deg[e[1]] += 1
            elif pool:
                pool.pop()
        updates.append(Update(e_ins=e_ins))

    t_star = rng.integers(0, T)
    u = updates[t_star]
    modes = []
    if u.e_ins:
        modes.append("drop-ins")
    spare = [e for e in pool if degree_ok(e)]
    if spare:
        modes.append("add-ins")
    if not modes:
        return None
    mode = modes[rng.integers(0, len(modes))]
    if mode == "drop-ins":
        keys = sorted(u.e_ins)
        e = keys[rng.integers(0, len(keys))]
        nu = Update(e_ins={k: w for k, w in u.e_ins.items() if k != e})
    else:
        e = spare[rng.integers(0, len(spare))]
        new_ins = dict(u.e_ins)
        new_ins[e] = 1 + rng.integers(0, scope.W_max)
        nu = Update(e_ins=new_ins)
    b_updates = list(updates)
    b_updates[t_star] = nu
    return GraphSequence(initial, updates), GraphSequence(initial, b_updates)


def _sample_edge_decremental(scope: OracleScope, rng: RandomSource) -> Pair | None:
    n = 2 + rng.integers(0, scope.n_max - 1)
    T = 1 + rng.integers(0, scope.T_max)
    initial, edges = _random_initial(n, scope, rng, density=0.6)
    if not edges:
        return None
    remaining = dict(edges)
    updates: list[Update] = []
    for _ in range(T):
        e_del: set[tuple[int, int]] = set()
        keys = sorted(remaining)
        for _ in range(rng.integers(0, 3)):
            if keys:
                e = keys.pop(rng.integers(0, len(keys)))
                e_del.add(e)
                del remaining[e]
        updates.append(Update(e_del=e_del))

    # The closed forms cover decremental pairs whose distinguished
    # deletion is the final difference: with shared deletions after it,
    # a structure through e* can count twice (once when e* goes in one
    # sequence, again when its last other edge goes in the partner).
    t_star = T - 1
    u = updates[t_star]
    modes = []
    if u.e_del:
        modes.append("drop-del")
    # an extra deletion is only safe for an edge never deleted later
    never_deleted = sorted(remaining)
    if never_deleted:
        modes.append("add-del")
    if not modes:
        return None
    mode = modes[rng.integers(0, len(modes))]
    if mode == "drop-del":
        keys = sorted(u.e_del)
        e = keys[rng.integers(0, len(keys))]
        nu = Update(e_del=u.e_del - {e})
    else:
        e = never_deleted[rng.integers(0, len(never_deleted))]
        nu = Update(e_del=u.e_del | {e})
    b_updates = list(updates)
    b_updates[t_star] = nu
    return GraphSequence(initial, updates), GraphSequence(initial, b_updates)


def _sample_edge_fully_dynamic(scope: OracleScope, rng: RandomSource) -> Pair | None:
    n = 2 + rng.integers(0, scope.n_max - 1)
    T = 1 + rng.integers(0, scope.T_max)
    D = scope.D_max
    initial, edges = _random_initial(n, scope, rng, density=0.4)
    deg = [0] * n
    for u1, v1 in edges:
        deg[u1] += 1
        deg[v1] += 1
    pool = [e for e in _fresh_pool(n) if e not in edges]
    for i in range(len(pool) - 1, 0, -1):
        j = rng.integers(0, i + 1)
        pool[i], pool[j] = pool[j], pool[i]

    def degree_ok(e: tuple[int, int]) -> bool:
        return D is None or (deg[e[0]] < D and deg[e[1]] < D)

    present = dict(edges)
    updates: list[Update] = []
    for _ in range(T):
        e_ins: dict[tuple[int, int], int] = {}
        e_del: set[tuple[int, int]] = set()
        for _ in range(rng.integers(0, 3)):
            if rng.uniform() < 0.5 and pool:
                # fresh edges only, so each key is touched at most once
                e = pool[-1]
                if degree_ok(e):
                    pool.pop()
                    e_ins[e] = 1 + rng.integers(0, scope.W_max)
                    present[e] = e_ins[e]
                    deg[e[0]] += 1
                    deg[e[1]] += 1
            else:
                keys = sorted(k for k in present if k not in e_ins)
                if keys:
                    e = keys[rng.integers(0, len(keys))]
                    e_del.add(e)
                    del present[e]
        updates.append(Update(e_ins=e_ins, e_del=e_del))

    t_star = rng.integers(0, T)
    u = updates[t_star]
    later_touched: set[tuple[int, int]] = set()
    for v in updates[t_star + 1:]:
        later_touched |= set(v.e_ins) | set(v.e_del)
    modes = []
    if any(e not in later_touched for e in u.e_ins):
        modes.append("drop-ins")
    spare = [e for e in pool if degree_ok(e)]
    if spare:
        modes.append("add-ins")
    safe_dels = sorted(e for e in u.e_del if e not in later_touched)
    if safe_dels:
        modes.append("drop-del")
    still_present = sorted(e for e in present if e not in later_touched)
    if still_present:
        modes.append("add-del")
    if not modes:
        return None
    mode = modes[rng.integers(0, len(modes))]
    if mode == "drop-ins":
        keys = sorted(e for e in u.e_ins if e not in later_touched)
        e = keys[rng.integers(0, len(keys))]
        nu = Update(e_ins={k: w for k, w in u.e_ins.items() if k != e}, e_del=u.e_del)
    elif mode == "add-ins":
        e = spare[rng.integers(0, len(spare))]
        new_ins = dict(u.e_ins)
        new_ins[e] = 1 + rng.integers(0, scope.W_max)
        nu = Update(e_ins=new_ins, e_del=u.e_del)
    elif mode == "drop-del":
        e = safe_dels[rng.integers(0, len(safe_dels))]
        nu = Update(e_ins=u.e_ins, e_del=u.e_del - {e})
    else:
        e = still_present[rng.integers(0, len(still_present))]
        nu = Update(e_ins=u.e_ins, e_del=u.e_del | {e})
    b_updates = list(updates)
    b_updates[t_star] = nu
    a = GraphSequence(initial, updates)
    b = GraphSequence(initial, b_updates)
    try:
        b.validate()
    except InvalidUpdate:
        return None
    return a, b


def _sample_edge_pair(scope: OracleScope, rng: RandomSource) -> Pair | None:
    if scope.regime == "fully-dynamic":
        return _sample_edge_fully_dynamic(scope, rng)
    if scope.regime == "decremental":
        return _sample_edge_decremental(scope, rng)
    return _sample_edge_incremental(scope, rng)


def _sample_node_incremental(scope: OracleScope, rng: RandomSource) -> Pair | None:
    n0 = 1 + rng.integers(0, 2)
    T = 1 + rng.integers(0, scope.T_max)
    D = scope.D_max
    next_id = n0
    present = list(range(n0))
    deg: dict[int, int] = {v: 0 for v in present}
    initial = Graph(present)

    updates: list[Update] = []
    inserted_at: list[tuple[int, int]] = []  # (t index, node)
    edges_present: set[tuple[int, int]] = set()
    for t in range(T):
        v_ins: set[int] = set()
        e_ins: dict[tuple[int, int], int] = {}
        if len(present) + 1 <= scope.n_max and rng.uniform() < 0.8:
            v = next_id
            next_id += 1
            v_ins.add(v)
            deg[v] = 0
            inserted_at.append((t, v))
            for u in list(present):
                if rng.uniform() < 0.5 and (D is None or (deg[u] < D and deg[v] < D)):
                    e_ins[edge_key(u, v)] = 1 + rng.integers(0, scope.W_max)
                    deg[u] += 1
                    deg[v] += 1
            present.append(v)
        if len(present) >= 2 and rng.uniform() < 0.4:
            u1 = present[rng.integers(0, len(present))]
            u2 = present[rng.integers(0, len(present))]
            if u1 != u2:
                e = edge_key(u1, u2)
                if e not in edges_present and e not in e_ins and (
                    D is None or (deg[u1] < D and deg[u2] < D)
                ):
                    e_ins[e] = 1 + rng.integers(0, scope.W_max)
                    deg[u1] += 1
                    deg[u2] += 1
        edges_present |= set(e_ins)
        updates.append(Update(v_ins=v_ins, e_ins=e_ins))
    if not inserted_at:
        return None
    t_star, v_star = inserted_at[rng.integers(0, len(inserted_at))]

    b_updates = []
    for t, u in enumerate(updates):
        v_ins = u.v_ins - {v_star} if t == t_star else u.v_ins
        e_ins = {k: w for k, w in u.e_ins.items() if v_star not in k}
        b_updates.append(Update(v_ins=v_ins, e_ins=e_ins))
    return GraphSequence(initial, updates), GraphSequence(initial, b_updates)


def _sample_node_decremental(scope: OracleScope, rng: RandomSource) -> Pair | None:
    """Restricted family: the differing node is deleted in the final
    step, so the filtered partner stays valid."""
    n = 3 + rng.integers(0, max(scope.n_max - 2, 1))
    n = min(n, scope.n_max)
    T = 1 + rng.integers(0, scope.T_max)
    initial, edges = _random_initial(n, scope, rng, density=0.5)
    v_star = rng.integers(0, n)
    remaining = dict(edges)
    updates: list[Update] = []
    for t in range(T):
        if t == T - 1:
            incident = {e for e in remaining if v_star in e}
            updates.append(Update(v_del={v_star}, e_del=incident))
            continue
        # plain edge deletions, never node deletions before the last step
        e_del: set[tuple[int, int]] = set()
        keys = sorted(remaining)
        for _ in range(rng.integers(0, 2)):
            if keys:
                e = keys.pop(rng.integers(0, len(keys)))
                e_del.add(e)
                del remaining[e]
        updates.append(Update(e_del=e_del))

    b_updates = []
    for t, u in enumerate(updates):
        v_del = u.v_del - {v_star}
        e_del = {k for k in u.e_del if v_star not in k}
        b_updates.append(Update(v_del=v_del, e_del=e_del))
    return GraphSequence(initial, updates), GraphSequence(initial, b_updates)


def _sample_node_pair(scope: OracleScope, rng: RandomSource) -> Pair | None:
    if scope.regime == "decremental":
        return _sample_node_decremental(scope, rng)
    return _sample_node_incremental(scope, rng)


def _draw_pair(scope: OracleScope, rng: RandomSource) -> Pair | None:
    if scope.adjacency == "node":
        return _sample_node_pair(scope, rng)
    return _sample_edge_pair(scope, rng)


def _embedded_fixtures(f: GraphFunction, scope: OracleScope) -> list[Pair]:
    """Deterministic hard pairs relevant to the queried cell.

    The fixtures are incremental pairs, so only an incremental or the
    default partially-dynamic scope embeds them."""
    out: list[Pair] = []
    if scope.regime not in ("incremental", "partially-dynamic"):
        return out
    if f.name == "mst_weight" and scope.adjacency == "edge":
        for W in range(1, scope.W_max + 1):
            out.append(mst_tightness_pair(W))
    target = {name: t for t, name in EVENT_TARGETS.items()
              if name not in MONOTONE_FUNCTIONS}.get(f.name)
    if target is None:
        return out
    sigma = [1] * min(scope.T_max, 3)
    kwargs = dict(W=min(scope.W_max, 3), tau=f.tau, k=f.k)
    if scope.adjacency == "node":
        if target == "mst":
            kwargs = dict(W=min(scope.W_max, 3))
        else:
            D = scope.D_max if scope.D_max is not None else 4
            if D <= 3:
                return out
            kwargs = dict(D=D, tau=min(f.tau, D - 1) if f.tau else None,
                          k=f.k if f.k == D - 1 else None)
            if target == "kstar" and kwargs["k"] is None:
                return out
    elif target == "mst":
        kwargs = dict(W=min(scope.W_max, 3))
    try:
        pair = adjacent_pair(target, scope.adjacency, sigma, 1, **kwargs)
    except ParameterOutOfRange:  # e.g. no high-degree gadget for tau = 1
        return out
    out.append((pair.a, pair.b))
    return out


def _has_terminals(f: GraphFunction, pair: Pair) -> bool:
    """Whether every graph of both sequences holds the terminals of ``f``
    (always, for a statistic without terminals)."""
    if f.name != "st_min_cut":
        return True
    return all({f.s, f.t} <= g.nodes
               for seq in pair for g in chain((seq.initial,), seq.iter_graphs()))


def _pairs(f: GraphFunction, scope: OracleScope) -> Iterator[Pair]:
    """Embedded fixtures, then seeded adjacent draws, within the budget.

    Draws stop once max_pairs pairs have been yielded in all or after
    4 * max_pairs attempts.  A draw whose sequences are not adjacent, or
    where a graph of either sequence lacks a terminal of ``f``, fails.
    """
    fixtures = _embedded_fixtures(f, scope)
    yield from fixtures
    yielded = len(fixtures)
    rng = RandomSource(scope.seed)
    kind = AdjacencyKind.NODE_EVENT if scope.adjacency == "node" else AdjacencyKind.EDGE_EVENT
    for attempt in range(1, 4 * scope.max_pairs + 1):
        if yielded >= scope.max_pairs:
            return
        pair = _draw_pair(scope, rng.child(attempt))
        if (pair is None or check_adjacency(pair[0], pair[1], kind) is None
                or not _has_terminals(f, pair)):
            continue
        yielded += 1
        yield pair


def brute_sensitivity(f: GraphFunction, scope: OracleScope) -> OracleResult:
    """Maximum observed difference-sequence distance within scope."""
    best = 0.0
    best_pair: Pair | None = None
    tested = 0
    for pair in _pairs(f, scope):
        tested += 1
        val = diff_sensitivity(f, pair[0], pair[1])
        if val > best:
            best = val
            best_pair = pair
    return OracleResult(value=best, pair=best_pair, sampled=True, pairs_tested=tested)


def compare_with_table(f: GraphFunction, scope: OracleScope) -> TableVerdict:
    """Judge the closed-form registry cell against sampled pairs.

    The formula is evaluated per pair at that pair's observed maximum
    degree and weight, since the table constants are parametrized by
    the promised D and W.
    """
    tested = 0
    worst_ratio = 0.0
    max_value = 0.0
    formula_at_max = 0.0
    witness: Pair | None = None
    tight = False
    violation = False
    for pair in _pairs(f, scope):
        tested += 1
        val = diff_sensitivity(f, pair[0], pair[1])
        graphs = [g for seq in pair for g in (seq.initial, *seq.materialize())]
        D = max([1, *(d for g in graphs for d in g.degrees().values())])
        W = max(pair[0].max_weight(), pair[1].max_weight())
        bound = sensitivity_bound(f, scope.adjacency, scope.regime, D=D, W=W)
        if val > bound + 1e-9:
            violation = True
        if abs(val - bound) <= 1e-9 and val > 0:
            tight = True
        if val > max_value:
            max_value = val
            formula_at_max = bound
            witness = pair
        if bound > 0:
            worst_ratio = max(worst_ratio, val / bound)

    status = "Violation" if violation else ("Tight" if tight else "Sound")
    return TableVerdict(
        status=status,
        oracle_value=max_value,
        formula_at_max=formula_at_max,
        pairs_tested=tested,
        witness=witness,
        details={"worst_ratio": worst_ratio},
    )
