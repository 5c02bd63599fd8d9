"""One measured job process, started by run.py.

    python bench/child.py lib [OPTIONS] -- SPEC OUT
        import continualdp, parse the spec's logs and run its release
        calls through the library; write t/true/released per job to OUT.
    python bench/child.py cli [OPTIONS] -- ARGS...
        run ``continualdp.cli.main(ARGS)``, as ``python -m continualdp.cli``
        would.

OPTIONS:
    --trace TRACE        install the layer wrappers; write per-layer times
                         and counts to TRACE at exit
    --exact EXACT STEPS  (cli) every release the CLI makes, one per
                         experiment trial, keeps its exact values at STEPS
                         (comma-separated), written to EXACT as
                         ``{"trials": [{step: value}, ...]}``
    --rss RSS            write this process's peak RSS in MB to RSS at exit
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, in MB.

    Not ru_maxrss: Linux folds the parent's RSS at spawn time into the
    child's ru_maxrss (wait4 and RUSAGE_SELF alike), so the benchmark's
    own process, which holds the libraries and references, would mask a
    smaller job.  VmHWM counts only the memory map made at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _start_trace(trace_path: str | None, with_cli: bool):
    """Import the library, timing the import and installing wrappers when traced."""
    tr = None
    if trace_path:
        from tracer import Tracer

        tr = Tracer()
        tr.enter("import")
    import continualdp

    if with_cli:
        import continualdp.cli  # noqa: F401
    if tr is not None:
        from tracer import install

        tr.exit()
        install(tr)
    return continualdp, tr


def run_library(trace_path: str | None, spec_path: str, out_path: str) -> int:
    pkg, tr = _start_trace(trace_path, with_cli=False)
    spec = json.loads(Path(spec_path).read_text())
    eps, delta, beta = spec["epsilon"], spec["delta"], spec["beta"]
    seqs = {key: pkg.parse_sequence(Path(path).read_text())
            for key, path in spec["logs"].items()}
    results = []
    for job in spec["jobs"]:
        p = job["params"]
        seq = seqs[job["log"]]
        if p.get("reverse"):
            seq = pkg.reversed_sequence(seq)
        f = pkg.GraphFunction(job["function"], k=p.get("k"))
        rng = pkg.RandomSource(p["seed"])
        if job["monotone"]:
            rep = pkg.monotone_release(seq, f, eps, beta, delta, rng, r=p["r"], W=p["W"])
            released = [rec.output for rec in rep.records]
        else:
            rep = pkg.release(seq, f, eps, delta, rng, D=p.get("D"), W=p.get("W"))
            released = [rec.released for rec in rep.records]
        results.append({
            "t": [rec.t for rec in rep.records],
            "true": [rec.true for rec in rep.records],
            "released": released,
        })
    Path(out_path).write_text(json.dumps({"jobs": results}))
    if tr is not None:
        tr.dump(trace_path)
    return 0


def _record_exact(cli, steps: list[int]) -> list[dict]:
    """Wrap the CLI's release call so each call keeps its exact values at
    ``steps``; returns the list the calls append to."""
    trials: list[dict] = []
    inner = cli.diff_release

    def recording(*args, **kwargs):
        report = inner(*args, **kwargs)
        true = {rec.t: rec.true for rec in report.records}
        trials.append({t: list(v) if isinstance(v, tuple) else v
                       for t in steps if (v := true.get(t)) is not None})
        return report

    cli.diff_release = recording
    return trials


def run_cli(trace_path: str | None, exact: tuple[str, list[int]] | None,
            args: list[str]) -> int:
    _pkg, tr = _start_trace(trace_path, with_cli=True)
    cli = sys.modules["continualdp.cli"]
    trials = _record_exact(cli, exact[1]) if exact else None
    code = 0
    if tr is not None:
        tr.enter("cli")
    try:
        cli.main(args=args, prog_name="continual-dp")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        if tr is not None:
            tr.exit()
            tr.dump(trace_path)
    if exact:
        Path(exact[0]).write_text(json.dumps({"trials": trials}))
    return code


def main(argv: list[str]) -> int:
    if argv[:1] in (["lib"], ["cli"]) and "--" in argv:
        opts, args = argv[1:argv.index("--")], argv[argv.index("--") + 1:]
        trace = exact = rss = None
        while opts:
            if opts[0] == "--trace" and len(opts) >= 2:
                trace, opts = opts[1], opts[2:]
            elif opts[0] == "--rss" and len(opts) >= 2:
                rss, opts = opts[1], opts[2:]
            elif opts[0] == "--exact" and len(opts) >= 3 and argv[0] == "cli":
                exact, opts = (opts[1], [int(t) for t in opts[2].split(",")]), opts[3:]
            else:
                break
        if not opts and (argv[0] == "cli" or len(args) == 2):
            code = run_cli(trace, exact, args) if argv[0] == "cli" else run_library(trace, *args)
            if rss:
                Path(rss).write_text(repr(peak_rss_mb()))
            return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
