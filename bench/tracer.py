"""Per-layer tracing from outside the library.

``install`` replaces public functions and methods of ``continualdp``
with wrappers that time each call.  A name imported with
``from .x import f`` is looked up in the importing module, so such
names are patched in every module that uses them.

Coarse calls (parse, validate, max_degree, release, ...) each become a
span with a parent.  Hot calls (about 1e5 to 1e6 per run: feed, Laplace
draws, evaluate, graph steps, SVT queries) are only counted and timed,
under the span that encloses them.  Self time is a call's duration minus
the time of the traced calls inside it, so the self times of all layers
add up to the time spent inside traced calls.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# traced name -> per-layer metric its self time is added to
LAYER = {
    "import": "import.continualdp_s",
    "seqio.parse": "seqio.parse_s",
    "graphs.validate": "graphs.validate_s",
    "graphs.max_degree": "graphs.max_degree_s",
    "graphs.apply": "graphs.apply_s",
    "graphs.reverse": "graphs.apply_s",
    "functions.evaluate": "functions.evaluate_s",
    "counting.feed": "counting.feed_s",
    "noise.laplace": "noise.laplace_s",
    "monotone.release": "monotone.process_s",
    "monotone.query": "monotone.process_s",
    "release": "release.self_s",
    "cli": "cli.self_s",
}
HOT = {"graphs.apply", "functions.evaluate", "counting.feed", "noise.laplace", "monotone.query"}
GRAPH_PASSES = {"graphs.validate", "graphs.max_degree"}


class Tracer:
    """Call stack with spans for coarse calls and counters for hot ones."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self.stack: list[list] = []     # [name, start, child time, span index]
        self.self_s = dict.fromkeys(LAYER, 0.0)
        self.calls = dict.fromkeys(LAYER, 0)
        self.counts: dict[str, int] = {}

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def top(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def enter(self, name: str) -> None:
        span = None
        if name not in HOT:
            span = len(self.spans)
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append({"name": name, "parent": parent, "hot": {}})
        self.stack.append([name, perf_counter(), 0.0, span])

    def exit(self) -> None:
        name, start, child, span = self.stack.pop()
        end = perf_counter()
        dur = end - start
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if span is not None:
            rec = self.spans[span]
            rec["start"], rec["end"] = start - self.t0, end - self.t0
        else:
            owner = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            if owner is not None:
                hot = self.spans[owner]["hot"].setdefault(name, [0, 0.0])
                hot[0] += 1
                hot[1] += dur
        self.calls[name] += 1

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, metric in LAYER.items():
            out[metric] = out.get(metric, 0.0) + self.self_s[name]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layers(), "calls": self.calls,
                       "counts": self.counts, "spans": self.spans}, fh)


def _patch(tr: Tracer, owners, attr: str, name: str, on_result=None) -> None:
    for owner in owners:
        if owner is not None and hasattr(owner, attr):
            setattr(owner, attr, tr.wrap(name, getattr(owner, attr), on_result))


def install(tr: Tracer) -> None:
    """Wrap the library's layer boundaries.

    Call after importing continualdp, and after continualdp.cli when the
    CLI is used; the CLI is not imported here, so library runs do not pay
    for it.
    """
    pkg = importlib.import_module("continualdp")
    mod = {m: importlib.import_module(f"continualdp.{m}")
           for m in ("seqio", "graphs", "counting", "monotone", "release")}
    cli = sys.modules.get("continualdp.cli")
    GraphSequence = mod["graphs"].GraphSequence

    parse = mod["seqio"].parse_sequence

    def counted_parse(text, *args, **kwargs):
        tr.count("seqio.lines", text.count("\n"))
        return parse(text, *args, **kwargs)

    traced_parse = tr.wrap("seqio.parse", counted_parse)
    for owner in (pkg, mod["seqio"], cli):
        if owner is not None:
            owner.parse_sequence = traced_parse
    _patch(tr, [GraphSequence], "validate", "graphs.validate")
    _patch(tr, [GraphSequence], "max_degree", "graphs.max_degree")
    _patch(tr, [pkg, mod["graphs"]], "reversed_sequence", "graphs.reverse",
           lambda rev: (tr.count("graphs.passes"), tr.count("graphs.steps_applied", rev.T)))
    _patch(tr, [mod["release"], mod["monotone"], cli], "evaluate", "functions.evaluate")
    _patch(tr, [mod["counting"], mod["monotone"]], "sample_laplace", "noise.laplace")
    _patch(tr, [mod["counting"].BinaryMechanism], "feed", "counting.feed",
           lambda res: tr.count("counting.psums_released", len(res[0])))
    _patch(tr, [mod["monotone"].SparseVector], "query", "monotone.query",
           lambda ans: tr.count("monotone.svt_tops", ans.value == "top"))
    _patch(tr, [pkg, mod["monotone"], cli], "monotone_release", "monotone.release",
           lambda rep: tr.count("monotone.budget_exhausted_jobs", bool(rep.budget_exhausted)))
    # the package attribute continualdp.release is the function, and the
    # CLI imports it as diff_release
    release = tr.wrap("release", mod["release"].release)
    mod["release"].release = pkg.release = release
    if cli is not None:
        cli.diff_release = release

    iter_graphs = GraphSequence.iter_graphs

    def traced_iter_graphs(self):
        """One pass over the sequence; each step is timed as graphs.apply,
        except inside validate or max_degree, whose span already covers it."""
        tr.count("graphs.passes")
        it = iter_graphs(self)
        inline = tr.top() in GRAPH_PASSES
        while True:
            if not inline:
                tr.enter("graphs.apply")
            try:
                g = next(it)
            except StopIteration:
                return
            finally:
                if not inline:
                    tr.exit()
            tr.count("graphs.steps_applied")
            yield g

    GraphSequence.iter_graphs = traced_iter_graphs
