"""Command line surface: generate, eval, release, sensitivity, verify,
experiment.

All randomness flows from one --seed flag (env fallback
CONTINUAL_DP_SEED) into a keyed SHAKE-256 stream (``noise.RandomSource``).
The seed is secret: with it the noise of a release can be subtracted.
An unseeded ``release`` keys its stream with 32 bytes of OS entropy and
has no seed at all.  A release file holds only what is private, the
artifact version, the configuration and the noisy values (``t,released``,
or ``t,output`` for the monotone mechanism), and ``release`` prints only
public numbers.  True values come from ``eval`` and errors from
``experiment``; ``sensitivity`` and ``experiment`` are diagnostics, so
they print a drawn 64-bit seed, and ``experiment`` records it in its file.

Arguments are parsed with the standard library's ``argparse``, so a run
loads no third-party parser.  No option may be abbreviated, and a usage
error names its option.

Exit codes: 0 ok, 1 internal error, 2 usage or config error,
3 unsupported combination (no finite sensitivity bound).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .errors import ContinualDPError, UnboundedSensitivity, UnknownCombination
from .functions import EVENT_TARGETS, GraphFunction, evaluate
from .graphs import GraphSequence
from .noise import RandomSource, concentration_bound, sample_laplace
from .release import ReleaseReport, exact_values, theoretical_release_error
from .release import release as diff_release
from .seqio import parse_sequence, serialize_sequence

SEED_ENV = "CONTINUAL_DP_SEED"


def _wrap_errors(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (UnboundedSensitivity, UnknownCombination) as exc:
            print(f"unsupported combination: {exc}", file=sys.stderr)
            sys.exit(3)
        except ContinualDPError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)

    return inner


def _resolve_seed(seed: int | None) -> RandomSource:
    """A seeded source; a diagnostic run without --seed draws and prints one."""
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"seed: {seed}")
    return RandomSource(seed)


def _metadata_lines(config: dict) -> list[str]:
    return [
        f"# artifact-version: {__version__}\n",
        "# config: " + json.dumps(config, sort_keys=True) + "\n",
    ]


def _write(path: str | None, *parts: Iterable[str]) -> None:
    """Write each part's lines, which end in a newline, to ``path`` or to
    stdout, as the parts yield them."""
    if path is None:
        out = sys.stdout
        out.writelines(chain(*parts))
        out.flush()
    else:
        with open(path, "w") as out:
            out.writelines(chain(*parts))


def _release_rows(report: ReleaseReport) -> Iterator[str]:
    """The ``t,released`` rows of a difference release, from its ``est`` list or
    array.  One %-format per row writes the text of an f-string per value, faster."""
    est = report.est
    if isinstance(est, list):
        return map("%d,%.6f\n".__mod__, enumerate(est, start=1))
    row = "%d," + ";".join(["%.6f"] * est.shape[1]) + "\n"
    return (row % (t, *values.tolist()) for t, values in enumerate(est, start=1))


def _load_sequence(path: str) -> GraphSequence:
    return parse_sequence(Path(path).read_text())


def _build_function(function, tau, k, s, t) -> GraphFunction:
    return GraphFunction(function, tau=tau, k=k, s=s, t=t)


@_wrap_errors
def generate(target, adjacency, sigma, weight, degree, tau, k, flip, out) -> None:
    """Emit an adversarial update log plus an expected-value sidecar."""
    from .generators import adjacent_pair, expected_values, gen_event_level, target_function

    if any(ch not in "01" for ch in sigma) or not sigma:
        raise ContinualDPError(f"--sigma must be a non-empty 0/1 string, got {sigma!r}")
    bits = [int(ch) for ch in sigma]
    config = {
        "target": target,
        "adjacency": adjacency,
        "sigma": sigma,
        "W": weight,
        "D": degree,
        "tau": tau,
        "k": k,
    }
    if flip is None:
        seq = gen_event_level(target, adjacency, bits, W=weight, D=degree, tau=tau, k=k)
        expected = expected_values(target, adjacency, bits, W=weight, D=degree)
        Path(out).write_text(serialize_sequence(seq))
        sidecar = {
            "config": config,
            "version": __version__,
            "expected": expected,
            "function": target_function(target, tau=tau, k=k).label(),
        }
    else:
        pair = adjacent_pair(
            target, adjacency, bits, flip, W=weight, D=degree, tau=tau, k=k
        )
        Path(out).write_text(serialize_sequence(pair.a))
        Path(str(out) + ".partner").write_text(serialize_sequence(pair.b))
        sidecar = {
            "config": {**config, "flip": flip},
            "version": __version__,
            "expected": pair.expected_a,
            "expected_partner": pair.expected_b,
            "function": pair.target.label(),
            "witness": {
                "kind": pair.witness.kind.value,
                "element": list(pair.witness.element)
                if isinstance(pair.witness.element, tuple)
                else pair.witness.element,
                "t_star": pair.witness.t_star,
            },
        }
    Path(str(out) + ".expected.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {out}")


@_wrap_errors
def eval_cmd(function, tau, k, s, t_, input_, out) -> None:
    """Exact per-step values of a statistic along an update log."""
    f = _build_function(function, tau, k, s, t_)
    values = exact_values(_load_sequence(input_), f)
    rows = (f"{t},\"{';'.join(map(str, val))}\"\n" if isinstance(val, tuple) else f"{t},{val}\n"
            for t, val in enumerate(values, start=1))
    _write(out, ["t,value\n"], rows)


@_wrap_errors
def release_cmd(
    mechanism, function, tau, k, s, t_, epsilon, delta, beta, range_r,
    adjacency, degree_bound, weight_bound, input_, out, seed,
) -> None:
    """Private per-step release of a statistic along an update log.

    The output holds the config and the noisy values only; the seed is
    never written or printed."""
    if mechanism == "monotone" and range_r is None:
        raise ContinualDPError("--mechanism monotone requires a declared --range-r")
    if mechanism == "monotone" and degree_bound is not None:
        raise ContinualDPError("--mechanism monotone takes no --degree-bound: no monotone "
                               "statistic uses D")
    f = _build_function(function, tau, k, s, t_)
    seq = _load_sequence(input_)
    rng = RandomSource(seed)
    config = {
        "mechanism": mechanism,
        "function": f.label(),
        "epsilon": epsilon,
        "delta": delta,
        "adjacency": adjacency,
        "D": degree_bound,
        "W": weight_bound,
    }
    if mechanism == "diff":
        report = diff_release(
            seq, f, epsilon, delta, rng, adjacency=adjacency, D=degree_bound, W=weight_bound,
        )
        _write(out, _metadata_lines(config), ["t,released\n"], _release_rows(report))
        print(f"bound {report.bound:.4f}")
    else:
        from .monotone import monotone_release

        config["beta"] = beta
        report = monotone_release(
            seq, f, epsilon, beta, delta, rng, r=range_r, W=weight_bound, adjacency=adjacency,
        )
        rows = (f"{rec.t},{rec.output:.6f}\n" for rec in report.records)
        _write(out, _metadata_lines(config), ["t,output\n"], rows)
        print(f"alpha {report.alpha:.4f}, top answers {report.top_count}/{report.c}")


@_wrap_errors
def sensitivity_cmd(
    function, tau, k, s, t_, adjacency, regime, n_max, t_max, w_max, d_max,
    max_pairs, seed, out,
) -> None:
    """Brute-force sensitivity check against the closed-form table."""
    from .oracle import OracleScope, compare_with_table

    f = _build_function(function, tau, k, s, t_)
    rng = _resolve_seed(seed)
    scope = OracleScope(
        n_max=n_max, T_max=t_max, W_max=w_max, D_max=d_max,
        adjacency=adjacency, regime=regime, max_pairs=max_pairs, seed=rng.seed,
    )
    verdict = compare_with_table(f, scope)
    bound = verdict.formula_at_max
    result = {
        "version": __version__,
        "seed": rng.seed,
        "function": f.label(),
        "adjacency": adjacency,
        "regime": regime,
        "status": verdict.status,
        "oracle_value": verdict.oracle_value,
        "formula_at_max": bound if math.isfinite(bound) else None,  # JSON has no Infinity
        "pairs_tested": verdict.pairs_tested,
        "witness": [serialize_sequence(w) for w in verdict.witness]
        if verdict.witness
        else None,
    }
    text = json.dumps(result, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    if verdict.status == "Violation":
        sys.exit(1)


def _verify_sensitivity() -> list[tuple[str, bool]]:
    from .oracle import OracleScope, compare_with_table

    cells = [
        (GraphFunction("edge_count"), "edge", "incremental", None),
        (GraphFunction("high_degree", tau=2), "edge", "incremental", None),
        (GraphFunction("degree_histogram"), "edge", "incremental", 3),
        (GraphFunction("triangle_count"), "edge", "incremental", 3),
        (GraphFunction("triangle_count"), "edge", "decremental", 3),
        (GraphFunction("kstar_count", k=2), "edge", "incremental", 3),
        (GraphFunction("kstar_count", k=2), "edge", "decremental", 3),
        (GraphFunction("mst_weight"), "edge", "incremental", None),
        (GraphFunction("mst_weight"), "edge", "decremental", None),
        (GraphFunction("edge_count"), "edge", "fully-dynamic", None),
        (GraphFunction("edge_count"), "node", "incremental", 4),
        (GraphFunction("triangle_count"), "node", "incremental", 4),
    ]
    results = []
    for f, adjacency, regime, d in cells:
        scope = OracleScope(
            n_max=5, T_max=3, W_max=2, D_max=d, adjacency=adjacency,
            regime=regime, max_pairs=60, seed=7,
        )
        verdict = compare_with_table(f, scope)
        ok = verdict.status != "Violation"
        results.append((f"sensitivity {f.label()} {adjacency}/{regime}: {verdict.status}", ok))
    return results


def _verify_generators() -> list[tuple[str, bool]]:
    from .generators import expected_values, gen_event_level, target_function

    results = []
    sigma = [1, 0, 1, 1, 0, 1]
    cases = [
        ("mst", "edge", dict(W=3)),
        ("mst", "node", dict(W=3)),
        ("min_cut", "edge", dict(W=3)),
        ("min_cut", "node", dict(W=3)),
        ("matching", "edge", dict(W=3)),
        ("matching", "node", dict(W=3)),
        ("edge_count", "edge", {}),
        ("high_degree", "edge", dict(tau=2)),
        ("degree_histogram", "edge", {}),
        ("triangle", "edge", {}),
        ("kstar", "edge", dict(k=2)),
        ("edge_count", "node", dict(D=4)),
        ("high_degree", "node", dict(D=4, tau=2)),
        ("degree_histogram", "node", dict(D=4)),
        ("triangle", "node", dict(D=4)),
        ("kstar", "node", dict(D=4, k=3)),
    ]
    for target, adjacency, kwargs in cases:
        f = target_function(target, tau=kwargs.get("tau"), k=kwargs.get("k"))
        seq = gen_event_level(target, adjacency, sigma, **kwargs)
        expect = expected_values(
            target, adjacency, sigma, W=kwargs.get("W", 1), D=kwargs.get("D")
        )
        ok = True
        for g, want in zip(seq.iter_graphs(), expect):
            val = evaluate(f, g)
            if f.name == "degree_histogram":
                val = val[2] if len(val) > 2 else 0
            if float(val) != float(want):
                ok = False
                break
        results.append((f"generator {target}/{adjacency} closed form", ok))
    return results


def _verify_bounds() -> list[tuple[str, bool]]:
    from .counting import BinaryMechanism, prefix_intervals
    from .generators import gen_event_level

    rng = RandomSource(11)
    trials, exceed = 2000, 0
    scales = [1.0] * 10
    bound = concentration_bound(scales, 0.05)
    for _ in range(trials):
        total = sum(sample_laplace(rng, b) for b in scales)
        if abs(total) > bound:
            exceed += 1
    ok = exceed / trials <= 0.05 + 0.02
    results = [(f"concentration bound exceeded {exceed}/{trials}", ok)]

    # the clean p-sums over each prefix's dyadic intervals give the exact count,
    # fed item by item and as the one block a release feeds
    seq = gen_event_level("edge_count", "edge", [1, 0, 1, 1, 1, 0, 1, 1])
    counts = exact_values(seq, GraphFunction("edge_count"))
    diffs = [b - a for a, b in zip([0, *counts], counts)]
    items, block = (BinaryMechanism(seq.T, 1.0, RandomSource(3)) for _ in range(2))
    for diff in diffs:
        items.feed(diff)
    block.feed(diffs)
    for mech, label in [(items, "p-sum reconstruction of the exact count"),
                        (block, "p-sum reconstruction from one block, as item by item")]:
        clean = {(rec.level, rec.start): rec.clean for rec in mech.trace()}
        ok = all(sum(clean[i, start] for i, start, _end in prefix_intervals(t)) == count
                 for t, count in enumerate(counts, start=1))
        # the block's trace must be the items' bit for bit: repr tells -0.0 from 0.0
        results.append((label, ok and repr(mech.trace()) == repr(items.trace())))
    bound64 = theoretical_release_error(1.0, 1.0, 0.05, 64)
    bound4096 = theoretical_release_error(1.0, 1.0, 0.05, 4096)
    results.append(("error bound monotone in T", bound4096 > bound64))
    return results


@_wrap_errors
def verify_cmd(suite) -> None:
    """Run an invariant suite; nonzero exit on any failure."""
    runner = {
        "sensitivity": _verify_sensitivity,
        "generators": _verify_generators,
        "bounds": _verify_bounds,
    }[suite]
    results = runner()
    failed = False
    for label, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        failed |= not ok
    if failed:
        sys.exit(1)


def _quantiles(values: list[float], qs: Iterable[float]) -> list[float]:
    """``np.quantile(values, qs)`` with numpy's default ``linear`` rule,
    bit for bit.  ``np.quantile`` imports ``numpy.ma`` (through
    ``np.unique``) on its first call, which an experiment otherwise never
    loads."""
    v = sorted(values)
    last = len(v) - 1
    out = []
    for q in qs:
        h = last * q
        if h >= last:
            out.append(v[-1])
            continue
        i = int(h)
        a, b, g = v[i], v[i + 1], h - i
        # numpy's _lerp: interpolate from the nearer end
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return out


@_wrap_errors
def experiment_cmd(
    function, tau, k, s, t_, epsilon, delta, adjacency, degree_bound,
    weight_bound, input_, trials, seed, out,
) -> None:
    """Repeated seeded releases; per-trial max error vs. the bound.

    After the config line, a ``# summary:`` line records the number of
    trials within the bound and quantiles of the per-trial max error,
    rounded as in the rows.
    """
    f = _build_function(function, tau, k, s, t_)
    seq = _load_sequence(input_)
    rng = _resolve_seed(seed)
    config = {
        "function": f.label(),
        "epsilon": epsilon,
        "delta": delta,
        "adjacency": adjacency,
        "trials": trials,
    }
    rows = ["trial,seed,max_abs_error,bound,within_bound\n"]
    errors, exact = [], None  # trial 0 replays the log, refusing it as a release would
    for i in range(trials):
        child = rng.child(f"trial{i}")
        report = diff_release(
            seq, f, epsilon, delta, child,
            adjacency=adjacency, D=degree_bound, W=weight_bound, exact=exact,
        )
        exact, bound, error = report.exact, report.bound, report.max_abs_error
        del report  # the next trial is built without this one's est and errors
        errors.append(error)
        rows.append(f"{i},{child.seed},{error:.6f},{bound:.6f},{int(error <= bound)}\n")
    within = sum(e <= bound for e in errors)
    lo, median, p90, hi = _quantiles(errors, (0.0, 0.5, 0.9, 1.0))
    summary = {
        "trials": trials,
        "bound": round(bound, 6),
        "within_bound": within,
        "within_fraction": within / trials,
        "min": round(float(lo), 6),
        "median": round(float(median), 6),
        "p90": round(float(p90), 6),
        "max": round(float(hi), 6),
    }
    summary_line = "# summary: " + json.dumps(summary, sort_keys=True) + "\n"
    # a diagnostic run: its file records the seed, after the version
    version, config_line = _metadata_lines(config)
    _write(out, [version, f"# seed: {rng.seed}\n", config_line], [summary_line], rows)
    print(f"{within}/{trials} trials within bound {bound:.4f}, seed {rng.seed}")


def _existing_path(value: str) -> str:
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"path {value!r} does not exist")
    return value


def _at_least_1(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer >= 1")
    return n


def _parser(prog: str | None) -> argparse.ArgumentParser:
    """The six subcommands and their options; no option may be abbreviated.
    ``--seed`` defaults to $CONTINUAL_DP_SEED, a string that argparse parses
    as the flag's value, so a bad one exits 2 naming --seed."""
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    seed = dict(type=int, default=os.environ.get(SEED_ENV) or None)
    adjacency = dict(default="edge", choices=["edge", "node"])
    input_ = dict(dest="input_", metavar="INPUT", required=True, type=_existing_path)

    def command(name, run, *, statistic=True):
        p = commands.add_parser(name, help=run.__doc__.partition("\n")[0],
                                description=run.__doc__, allow_abbrev=False)
        p.set_defaults(run=run)
        if statistic:
            p.add_argument("--function", required=True, help="graph statistic name")
            p.add_argument("--tau", type=int, help="degree threshold for high_degree")
            p.add_argument("--k", type=int, help="star size for kstar_count")
            p.add_argument("--s", type=int, help="source terminal for st_min_cut")
            p.add_argument("--t", dest="t_", metavar="T", type=int,
                           help="sink terminal for st_min_cut")
        return p

    p = command("generate", generate, statistic=False)
    p.add_argument("--target", required=True, choices=sorted(EVENT_TARGETS))
    p.add_argument("--adjacency", **adjacency)
    p.add_argument("--sigma", required=True, help="binary stream, e.g. 101")
    p.add_argument("--weight", "-W", type=int, default=1)
    p.add_argument("--degree", "-D", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--flip", type=int, help="also emit the pair with this bit flipped")
    p.add_argument("--out", required=True)

    p = command("eval", eval_cmd)
    p.add_argument("--input", **input_)
    p.add_argument("--out")

    p = command("release", release_cmd)
    p.add_argument("--mechanism", default="diff", choices=["diff", "monotone"])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.5, help="monotone multiplicative error")
    p.add_argument("--range-r", type=float,
                   help="declared top r of the monotone value range [1, r]; required by monotone")
    p.add_argument("--adjacency", **adjacency)
    p.add_argument("--degree-bound", "-D", type=int)
    p.add_argument("--weight-bound", "-W", type=int)
    p.add_argument("--input", **input_)
    p.add_argument("--out")
    p.add_argument("--seed", **seed, help="secret: it determines the noise")

    p = command("sensitivity", sensitivity_cmd)
    p.add_argument("--adjacency", **adjacency)
    p.add_argument("--regime", default="incremental",
                   choices=["incremental", "decremental", "fully-dynamic"])
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--w-max", type=int, default=1)
    p.add_argument("--d-max", type=int)
    p.add_argument("--max-pairs", type=int, default=200)
    p.add_argument("--seed", **seed)
    p.add_argument("--out")

    p = command("verify", verify_cmd, statistic=False)
    p.add_argument("suite", choices=["sensitivity", "generators", "bounds"])

    p = command("experiment", experiment_cmd)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--adjacency", **adjacency)
    p.add_argument("--degree-bound", "-D", type=int)
    p.add_argument("--weight-bound", "-W", type=int)
    p.add_argument("--input", **input_)
    p.add_argument("--trials", type=_at_least_1, default=20)
    p.add_argument("--seed", **seed)
    p.add_argument("--out", required=True)
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Differentially private continual release of graph statistics."""
    options = vars(_parser(prog_name).parse_args(args))
    options.pop("run")(**options)


if __name__ == "__main__":
    main(prog_name="python -m continualdp.cli")
