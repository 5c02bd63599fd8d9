"""The log parser as it stood before its fast path, every token through
``_parse_int`` and every line built by ``Update(...)``, and the update
semantics as they stood before sequences were held as columns.  They are
the reference that ``continualdp.seqio.parse_sequence`` and the replay of
its columns are checked against."""

from __future__ import annotations

from typing import Iterator

from continualdp import Graph, Update, edge_key
from continualdp.errors import FormatError, InvalidUpdate


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"bad {what}: {tok!r}") from None


def parse_update(line: str) -> tuple[int, Update]:
    fields = line.split()
    if not fields or not fields[0].startswith("t="):
        raise FormatError(f"line must start with t=<int>: {line!r}")
    t = _parse_int(fields[0][2:], "time index")
    v_ins: list[int] = []
    v_del: list[int] = []
    e_ins: list[tuple[int, int, int]] = []
    e_del: list[tuple[int, int]] = []
    for field in fields[1:]:
        if ":" not in field:
            raise FormatError(f"malformed field {field!r}")
        tag, body = field.split(":", 1)
        items = body.split(",") if body else []
        if tag == "+v":
            v_ins.extend(_parse_int(x, "node id") for x in items)
        elif tag == "-v":
            v_del.extend(_parse_int(x, "node id") for x in items)
        elif tag == "+e":
            for item in items:
                try:
                    uv, w = item.split(":")
                    a, b = uv.split("-")
                except ValueError:
                    raise FormatError(f"bad edge insert {item!r}") from None
                e_ins.append(
                    (_parse_int(a, "node id"), _parse_int(b, "node id"), _parse_int(w, "weight"))
                )
        elif tag == "-e":
            for item in items:
                try:
                    a, b = item.split("-")
                except ValueError:
                    raise FormatError(f"bad edge delete {item!r}") from None
                e_del.append((_parse_int(a, "node id"), _parse_int(b, "node id")))
        else:
            raise FormatError(f"unknown field tag {tag!r}")
    return t, Update(v_ins=v_ins, v_del=v_del, e_ins=e_ins, e_del=e_del)


def parse_sequence(text: str) -> tuple[Graph, list[Update]]:
    """The initial graph and the updates of a log, read line by line with
    ``parse_update`` and checked as the log format requires."""
    updates: dict[int, Update] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        t, u = parse_update(line)
        if t < 0:
            raise FormatError(f"negative time index {t}")
        if t in updates:
            raise FormatError(f"duplicate line for t={t}")
        updates[t] = u
    if 0 not in updates:
        raise FormatError("missing t=0 initial-graph line")
    init = updates.pop(0)
    if init.v_del or init.e_del:
        raise FormatError("t=0 line may only contain insertions")
    initial = Graph(init.v_ins, init.e_ins)
    T = max(updates, default=0)
    if sorted(updates) != list(range(1, T + 1)):
        raise FormatError("time indices must be contiguous 1..T")
    return initial, [updates[t] for t in range(1, T + 1)]


def replay(initial: Graph, updates: list[Update]) -> Iterator[Graph]:
    """G_1..G_T, one update at a time, by the update semantics as they stood
    before sequences were held as columns; an invalid update raises
    ``InvalidUpdate`` naming its step."""
    nodes, edges = set(initial.nodes), dict(initial.edges)
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for t, u in enumerate(updates, start=1):
        try:
            _apply(nodes, edges, adj, u)
        except InvalidUpdate as exc:
            raise InvalidUpdate(f"at t={t}: {exc}") from exc
        yield Graph(nodes, edges, _validate=False)


def _apply(nodes: set, edges: dict, adj: dict, u: Update) -> None:
    if not u.v_del <= nodes:
        raise InvalidUpdate(f"deleting absent nodes {sorted(u.v_del - nodes)}")
    for k in u.e_del:
        if k not in edges:
            raise InvalidUpdate(f"deleting absent edge {k}")
        a, b = k
        del edges[k]
        adj[a].remove(b)
        adj[b].remove(a)
    if u.v_del:
        kept = [edge_key(v, x) for v in u.v_del for x in adj[v]]
        if kept:
            k = min(kept)
            v = k[0] if k[0] in u.v_del else k[1]
            raise InvalidUpdate(f"node {v} deleted while edge {k} survives")
        for v in u.v_del:
            nodes.remove(v)
            del adj[v]
    if not u.v_ins.isdisjoint(nodes):
        raise InvalidUpdate(f"inserting already-present nodes {sorted(u.v_ins & nodes)}")
    for v in u.v_ins:
        nodes.add(v)
        adj[v] = set()
    for k, w in u.e_ins.items():
        if k in edges:
            raise InvalidUpdate(f"inserting already-present edge {k}")
        a, b = k
        if a not in nodes or b not in nodes:
            raise InvalidUpdate(f"inserting edge {k} with an absent endpoint")
        edges[k] = w
        adj[a].add(b)
        adj[b].add(a)
