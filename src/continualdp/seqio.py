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
needs each of the lines ``t=0..T`` once, in any order.  It writes the
operations of steps 1..T straight to the columns of a ``GraphSequence``
(see ``graphs``), with one ``int`` per node id of the log, and builds no
``Update`` for a line that ``Update`` would accept as it stands.  It
does not replay the log: the first replay of whatever reads it refuses
an invalid update.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import Graph, GraphSequence, Update, _append_ops, _step_bounds


def _fmt_step(t: int, v_ins, v_del, e_ins, e_del) -> str:
    """One line from a step's node ids, ``(u, v, w)`` insertions and
    ``(u, v)`` deletions, each kind sorted."""
    parts = [f"t={t}"]
    if v_ins:
        parts.append("+v:" + ",".join(str(v) for v in sorted(v_ins)))
    if v_del:
        parts.append("-v:" + ",".join(str(v) for v in sorted(v_del)))
    if e_ins:
        parts.append("+e:" + ",".join(f"{a}-{b}:{w}" for a, b, w in sorted(e_ins)))
    if e_del:
        parts.append("-e:" + ",".join(f"{a}-{b}" for a, b in sorted(e_del)))
    return " ".join(parts)


def serialize_sequence(seq: GraphSequence) -> str:
    g0 = seq.initial
    lines = [_fmt_step(0, g0.nodes, (), [(a, b, w) for (a, b), w in g0.edges.items()], ())]
    op, x, y, w, starts = seq.op, seq.x, seq.y, seq.w, seq.starts
    for t in range(1, len(starts)):
        lo, hi = starts[t - 1], starts[t]
        i, j, s = _step_bounds(op, lo, hi)
        lines.append(_fmt_step(t, x[j:s], x[i:j], list(zip(x[s:hi], y[s:hi], w[s:hi])),
                               list(zip(x[lo:i], y[lo:i]))))
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


def _node_id(ids: dict, tok: str) -> int:
    """The one ``int`` of this log for the node-id token ``tok``: ``ids``
    maps each id token, and each id value, to it."""
    v = ids.get(tok)
    if v is None:
        v = int(tok)
        v = ids[tok] = ids.setdefault(v, v)
    return v


def parse_sequence(text: str) -> GraphSequence:
    """Parse a log straight into the columns of a ``GraphSequence``.

    A line with no node field, no self-loop and no weight below 1 is
    canonical: its ordered keys and its weights are what ``Update`` would
    accept as they stand, so its operations go to the columns as read.
    Any other line, and the ``t=0`` line, is built by ``Update(...)``,
    which checks it.  Lines come in any order; each step's operations are
    put in order of ``t`` at the end.
    """
    op: list[int] = []
    x: list[int] = []
    y: list[int] = []
    w: list[int] = []
    ids: dict = {}  # one int per node id of the log
    starts = [0]  # where each step starts, while lines t = 1, 2, ... come in order
    spans: dict[int, tuple[int, int]] | None = None  # after that, each step's lo:hi by t
    init: Update | None = None
    for raw in text.splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if not fields[0].startswith("t="):
            raise FormatError(f"line must start with t=<int>: {raw.strip()!r}")
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
                            uv, wt = item.split(":")
                            wt = int(wt)
                        else:
                            uv, wt = item, 1
                        a, b = uv.split("-")
                        try:
                            p = ids[a]
                        except KeyError:
                            p = _node_id(ids, a)
                        try:
                            q = ids[b]
                        except KeyError:
                            q = _node_id(ids, b)
                    except ValueError:
                        _reject_item(tag, item)
                    # an endpoint token holds no "-", so it is never negative
                    if wt < 1 or p == q:
                        canonical = False
                    if tag == "+e":
                        e_ins[(p, q) if p < q else (q, p)] = wt
                    else:
                        e_del.append((p, q) if p < q else (q, p))
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
        lo = len(op)
        if canonical and t != 0:
            # deletions in the order of the frozenset Update would make of them
            dels = frozenset(e_del) if len(e_del) > 1 else e_del
            _append_ops(op, x, y, w, dels, (), (), e_ins)
        else:
            u = Update(v_ins=v_ins, v_del=v_del, e_ins=e_ins, e_del=e_del)
            if t > 0:
                _append_ops(op, x, y, w, u.e_del, u.v_del, u.v_ins, u.e_ins)
        if t < 0:
            raise FormatError(f"negative time index {t}")
        if t == 0:
            if init is not None:
                raise FormatError(f"duplicate line for t={t}")
            init = u
        elif spans is None and t == len(starts):
            starts.append(len(op))
        else:
            if spans is None:
                spans = dict(zip(range(1, len(starts)), zip(starts, starts[1:])))
            if t in spans:
                raise FormatError(f"duplicate line for t={t}")
            spans[t] = (lo, len(op))
    if init is None:
        raise FormatError("missing t=0 initial-graph line")
    if init.v_del or init.e_del:
        raise FormatError("t=0 line may only contain insertions")
    initial = Graph(init.v_ins, init.e_ins)
    if spans is not None:
        # distinct indices 1..T are contiguous when there are T of them
        if max(spans) != len(spans):
            raise FormatError("time indices must be contiguous 1..T")
        cols = (op, x, y, w)
        op, x, y, w = [], [], [], []
        starts = [0]
        for t in range(1, len(spans) + 1):
            lo, hi = spans[t]
            for new, col in zip((op, x, y, w), cols):
                new += col[lo:hi]
            starts.append(len(op))
    return GraphSequence._of(initial, op, x, y, w, starts)
