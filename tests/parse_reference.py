"""The update-line parser as it stood before its fast path: every token
goes through ``_parse_int``.  It is the reference the fast parser in
``continualdp.seqio`` is checked against."""

from __future__ import annotations

from continualdp import Update
from continualdp.errors import FormatError


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
