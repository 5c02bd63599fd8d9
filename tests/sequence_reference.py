"""The adjacency witnesses and the log formatter as they stood when a
sequence's steps were read as ``Update`` objects, one witness function
per adjacency relation.  They are the reference that
``continualdp.check_adjacency`` and ``continualdp.serialize_sequence``,
which read the operation columns, are checked against."""

from __future__ import annotations

from continualdp import AdjacencyKind, AdjacencyWitness, GraphSequence, Update
from continualdp.errors import LengthMismatch
from continualdp.graphs import EdgeKey


def _edge_event_witness(a: GraphSequence, b: GraphSequence) -> AdjacencyWitness | None:
    a_updates, b_updates = a.updates, b.updates
    diffs = [t for t in range(a.T) if a_updates[t] != b_updates[t]]
    if len(diffs) != 1:
        return None
    t = diffs[0]
    ua, ub = a_updates[t], b_updates[t]
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
    a_updates, b_updates = a.updates, b.updates
    node_diffs = [
        t
        for t in range(a.T)
        if a_updates[t].v_ins != b_updates[t].v_ins
        or a_updates[t].v_del != b_updates[t].v_del
    ]
    if len(node_diffs) != 1:
        return None
    t = node_diffs[0]
    ua, ub = a_updates[t], b_updates[t]
    cand = (ua.v_ins ^ ub.v_ins) | (ua.v_del ^ ub.v_del)
    if len(cand) != 1:
        return None
    (v_star,) = cand
    # every edge-update difference, at any time, must be an edge
    # incident to v_star; filtering those edges must equalize the pair
    for t2 in range(a.T):
        u1, u2 = a_updates[t2], b_updates[t2]
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
    for ua, ub in zip(a.updates, b.updates):
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


def _fmt_update(t: int, u: Update) -> str:
    parts = [f"t={t}"]
    if u.v_ins:
        parts.append("+v:" + ",".join(str(v) for v in sorted(u.v_ins)))
    if u.v_del:
        parts.append("-v:" + ",".join(str(v) for v in sorted(u.v_del)))
    if u.e_ins:
        parts.append(
            "+e:" + ",".join(f"{a}-{b}:{w}" for (a, b), w in sorted(u.e_ins.items()))
        )
    if u.e_del:
        parts.append("-e:" + ",".join(f"{a}-{b}" for a, b in sorted(u.e_del)))
    return " ".join(parts)


def serialize_sequence(seq: GraphSequence) -> str:
    g0 = seq.initial
    init = Update(v_ins=g0.nodes, e_ins=g0.edges)
    lines = [_fmt_update(0, init)]
    lines.extend(_fmt_update(t, u) for t, u in enumerate(seq.updates, start=1))
    return "\n".join(lines) + "\n"
