"""Update-log text format for graph sequences.

One update per line:

    t=<int> +v:<id,...> -v:<id,...> +e:<u-v:w,...> -e:<u-v,...>

After ``t=<int>``, fields are whitespace-separated ``<tag>:<items>``
with tag ``+v``, ``-v``, ``+e`` or ``-e`` (any order, repeats allowed)
and comma-separated items ``<int>``, ``<int>-<int>:<int>`` or
``<int>-<int>``, where ``<int>`` is what Python's ``int`` accepts.  Edge
endpoints may come in either order; the parser puts each key in order.
``Update`` and ``Graph`` refuse a node id or an edge endpoint that is not
a non-negative ``int`` and a weight that is not a positive ``int``, which
this format could not read back.
Empty fields are omitted on output.  The initial graph is serialized as
a ``t=0`` line carrying only insertions; a ``t=0`` line is emitted even
when the initial graph is empty so the horizon is unambiguous.  Lines
starting with ``#`` are comments and ignored on parse.  ``parse_sequence``
needs each of the lines ``t=0..T`` once.  It does not replay the log:
the first replay of whatever reads it refuses an invalid update.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import Graph, GraphSequence, Update


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


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"bad {what}: {tok!r}") from None


def _reject_item(tag: str, item: str) -> None:
    """Raise the FormatError of an item whose inline int() conversion failed."""
    if tag in ("+v", "-v"):
        _parse_int(item, "node id")
    op = "insert" if tag == "+e" else "delete"
    try:
        uv, w = item.split(":") if op == "insert" else (item, "1")
        a, b = uv.split("-")
    except ValueError:
        raise FormatError(f"bad edge {op} {item!r}") from None
    for tok, what in ((a, "node id"), (b, "node id"), (w, "weight")):
        _parse_int(tok, what)


# Parsing a log interns its node ids and edge keys: ``ids`` maps each
# id token, and each id value, to one ``int``, and ``keys`` maps each
# ordered pair to one tuple, so every line that names an id or an edge
# shares that object, and so does the graph state a replay builds.


def _node_id(ids: dict, tok: str) -> int:
    """The one ``int`` of this log for the node-id token ``tok``."""
    v = ids.get(tok)
    if v is None:
        v = int(tok)
        v = ids[tok] = ids.setdefault(v, v)
    return v


def _parse_update(line: str, ids: dict | None = None,
                  keys: dict | None = None) -> tuple[int, Update]:
    """Parse one line.  ``ids`` and ``keys`` are the intern tables of the
    log the line belongs to; a call without them gets fresh ones.

    A line with no node field, no self-loop and no weight below 1 is
    canonical: its ordered keys and its weights are what ``Update`` would
    accept as they stand, so it is built by ``Update._canonical``.  Any
    other line goes through ``Update(...)``, which checks it.
    """
    ids = {} if ids is None else ids
    keys = {} if keys is None else keys
    fields = line.split()
    if not fields or not fields[0].startswith("t="):
        raise FormatError(f"line must start with t=<int>: {line!r}")
    t = _parse_int(fields[0][2:], "time index")
    v_ins: list[int] = []
    v_del: list[int] = []
    e_ins: dict[tuple[int, int], int] = {}
    e_del: list[tuple[int, int]] = []
    canonical = True
    for field in fields[1:]:
        tag, sep, body = field.partition(":")
        if not sep:
            raise FormatError(f"malformed field {field!r}")
        items = body.split(",") if body else ()
        if tag == "+e" or tag == "-e":
            for item in items:
                try:
                    if tag == "+e":
                        uv, w = item.split(":")
                        w = int(w)
                    else:
                        uv, w = item, 1
                    a, b = uv.split("-")
                    x = ids.get(a)
                    if x is None:
                        x = _node_id(ids, a)
                    y = ids.get(b)
                    if y is None:
                        y = _node_id(ids, b)
                except ValueError:
                    _reject_item(tag, item)
                k = (x, y) if x < y else (y, x)
                k = keys.setdefault(k, k)
                # an endpoint token holds no "-", so it is never negative
                if w < 1 or x == y:
                    canonical = False
                if tag == "+e":
                    e_ins[k] = w
                else:
                    e_del.append(k)
        elif tag == "+v" or tag == "-v":
            canonical = False
            nodes = v_ins if tag == "+v" else v_del
            for item in items:
                try:
                    nodes.append(_node_id(ids, item))
                except ValueError:
                    _reject_item(tag, item)
        else:
            raise FormatError(f"unknown field tag {tag!r}")
    if canonical:
        return t, Update._canonical(e_ins, e_del)
    return t, Update(v_ins=v_ins, v_del=v_del, e_ins=e_ins, e_del=e_del)


def _read_updates(text: str) -> dict[int, Update]:
    """The update of every line by its time index."""
    updates: dict[int, Update] = {}
    ids: dict = {}
    keys: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        t, u = _parse_update(line, ids, keys)
        if t < 0:
            raise FormatError(f"negative time index {t}")
        if t in updates:
            raise FormatError(f"duplicate line for t={t}")
        updates[t] = u
    return updates


def parse_sequence(text: str) -> GraphSequence:
    updates = _read_updates(text)
    if 0 not in updates:
        raise FormatError("missing t=0 initial-graph line")
    init = updates.pop(0)
    if init.v_del or init.e_del:
        raise FormatError("t=0 line may only contain insertions")
    initial = Graph(init.v_ins, init.e_ins)
    if updates:
        T = max(updates)
        if sorted(updates) != list(range(1, T + 1)):
            raise FormatError("time indices must be contiguous 1..T")
        return GraphSequence(initial, [updates[t] for t in range(1, T + 1)])
    return GraphSequence(initial, [])
