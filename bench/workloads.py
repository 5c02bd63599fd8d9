"""Seeded inputs, independent references and output checks per workload.

Every workload is generated from ``random.Random(seed)`` alone, so the
same seed gives the same update logs.  While a log is generated the
generator keeps its own graph state; the references below come from
that state (edge counts, degrees) or from networkx on snapshots of it,
never from the library under test.  References are computed once per
run, outside the timed region.

A job is one process run of the workload's command.  ``check_*``
functions return a list of failure reasons for one job's output; an
empty list means the job is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

EPSILON = 1.0
DELTA = 0.05
BETA = 0.5

# Sizes per workload.  FULL is what the benchmark measures; TINY is for
# the self-test.  See NOTES.md for why each size was chosen.
FULL = {
    "cli-dynamic": dict(n0=500, m0=1000, T=10000),
    "local-incremental": dict(n=400, T=400, per_step=2, W=3, D=32),
    "histogram-trials": dict(n=48, T=400, D=40, trials=3),
    "monotone-mixed": dict(n=40, T=150, W=2, dense_n=14, dense_T=60),
}
TINY = {
    "cli-dynamic": dict(n0=30, m0=40, T=200),
    "local-incremental": dict(n=30, T=40, per_step=2, W=3, D=12),
    "histogram-trials": dict(n=12, T=40, D=12, trials=2),
    "monotone-mixed": dict(n=12, T=30, W=2, dense_n=8, dense_T=12),
}
WORKLOADS = tuple(FULL)
MONOTONE = {"max_cardinality_matching", "min_cut", "densest_subgraph"}
N_SAMPLES = 16


class _Bag:
    """A set with O(1) uniform random choice and removal."""

    def __init__(self, items=()):
        self.items: list = []
        self.pos: dict = {}
        for x in items:
            self.add(x)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, x) -> bool:
        return x in self.pos

    def add(self, x) -> None:
        self.pos[x] = len(self.items)
        self.items.append(x)

    def remove(self, x) -> None:
        i = self.pos.pop(x)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def choice(self, r: random.Random):
        return self.items[r.randrange(len(self.items))]


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _line(t, v_ins=(), v_del=(), e_ins=None, e_del=()) -> str:
    parts = [f"t={t}"]
    if v_ins:
        parts.append("+v:" + ",".join(map(str, sorted(v_ins))))
    if v_del:
        parts.append("-v:" + ",".join(map(str, sorted(v_del))))
    if e_ins:
        parts.append("+e:" + ",".join(f"{a}-{b}:{w}" for (a, b), w in sorted(e_ins.items())))
    if e_del:
        parts.append("-e:" + ",".join(f"{a}-{b}" for a, b in sorted(e_del)))
    return " ".join(parts)


def sample_steps(T: int, k: int = N_SAMPLES) -> list[int]:
    """k steps spread evenly over 0..T, always including 1 and T."""
    return sorted({0, 1, T} | {round(i * T / (k - 1)) for i in range(k)})


def gen_dynamic(r: random.Random, n0: int, m0: int, T: int):
    """Fully dynamic log: ~2 edge inserts and 0.45 edge deletes per step;
    2% of steps delete a node with all its edges and insert a fresh node.

    Returns (log text, edge count after each step 1..T).
    """
    nodes = _Bag(range(n0))
    adj: dict[int, set[int]] = {v: set() for v in range(n0)}
    edges = _Bag()

    def insert_random(e_ins, e_del):
        while True:
            u, v = nodes.choice(r), nodes.choice(r)
            k = _key(u, v)
            if u != v and k not in edges and k not in e_del:
                break
        edges.add(k)
        adj[u].add(v)
        adj[v].add(u)
        e_ins[k] = 1

    def remove(k):
        edges.remove(k)
        adj[k[0]].discard(k[1])
        adj[k[1]].discard(k[0])

    init: dict = {}
    for _ in range(m0):
        insert_random(init, ())
    lines = [_line(0, v_ins=range(n0), e_ins=init)]
    counts = []
    next_id = n0
    for t in range(1, T + 1):
        e_ins: dict = {}
        e_del: set = set()
        v_ins: list = []
        v_del: list = []
        if len(edges) and r.random() < 0.45:
            k = edges.choice(r)
            remove(k)
            e_del.add(k)
        if r.random() < 0.02:
            v = nodes.choice(r)
            for u in list(adj[v]):
                k = _key(u, v)
                remove(k)
                e_del.add(k)
            nodes.remove(v)
            del adj[v]
            v_del.append(v)
            nodes.add(next_id)
            adj[next_id] = set()
            v_ins.append(next_id)
            next_id += 1
        for _ in range(r.choice((1, 2, 3))):
            insert_random(e_ins, e_del)
        lines.append(_line(t, v_ins, v_del, e_ins, e_del))
        counts.append(len(edges))
    return "\n".join(lines) + "\n", counts


def gen_incremental(r: random.Random, n: int, T: int, per_step: int, *,
                    W: int = 1, D: int | None = None, path: bool = False):
    """Insert-only log on nodes 0..n-1, ``per_step`` edges per step with
    weights in 1..W, never raising a degree above D.  ``path`` starts
    from a weighted path, which keeps every graph connected.

    Returns (log text, {step: edge dict} snapshots at sample_steps(T)).
    """
    edges: dict[tuple[int, int], int] = {}
    deg = [0] * n

    def add(k, w):
        edges[k] = w
        deg[k[0]] += 1
        deg[k[1]] += 1

    if path:
        for v in range(n - 1):
            add((v, v + 1), r.randint(1, W))
    lines = [_line(0, v_ins=range(n), e_ins=dict(edges))]
    samples = set(sample_steps(T))
    snaps = {0: dict(edges)}
    for t in range(1, T + 1):
        e_ins = {}
        while len(e_ins) < per_step:
            u, v = r.randrange(n), r.randrange(n)
            k = _key(u, v)
            if u == v or k in edges or (D is not None and max(deg[u], deg[v]) >= D):
                continue
            e_ins[k] = r.randint(1, W)
            add(k, e_ins[k])
        lines.append(_line(t, e_ins=e_ins))
        if t in samples:
            snaps[t] = dict(edges)
    return "\n".join(lines) + "\n", snaps


def _nx_graph(n: int, edges: dict) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_weighted_edges_from((u, v, w) for (u, v), w in edges.items())
    return G


def ref_triangles(n, edges) -> int:
    return sum(nx.triangles(_nx_graph(n, edges)).values()) // 3


def ref_degrees(n, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def ref_histogram(n, edges) -> list[int]:
    return np.bincount(ref_degrees(n, edges), minlength=n).tolist()


def ref_kstar2(n, edges) -> int:
    return sum(math.comb(d, 2) for d in ref_degrees(n, edges))


def ref_mst(n, edges) -> int:
    return int(nx.minimum_spanning_tree(_nx_graph(n, edges)).size(weight="weight"))


def ref_matching(n, edges) -> int:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return len(nx.max_weight_matching(G, maxcardinality=True))


def ref_min_cut(n, edges) -> float:
    G = _nx_graph(n, edges)
    if not nx.is_connected(G):
        return 0.0
    return float(nx.stoer_wagner(G)[0])


def ref_densest(n, edges) -> float:
    """max |E(S)|/|S| by vectorised enumeration of every node subset."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    inside = np.zeros(masks.size, dtype=np.int64)
    for u, v in edges:
        inside += (masks >> u) & (masks >> v) & 1
    sizes = np.zeros(masks.size, dtype=np.int64)
    for v in range(n):
        sizes += (masks >> v) & 1
    return float((inside / sizes).max()) if edges else 0.0


@dataclass
class Job:
    """One release inside a workload's job, with what its output must match."""

    name: str
    log: str                      # key into Inputs.logs
    function: str
    T: int
    bound: float                  # max |released - true| or the monotone alpha
    refs: dict[int, float]        # step -> exact reference value
    params: dict = field(default_factory=dict)
    budget: int = 0               # monotone jobs: SVT budget c, the top ladder exponent


@dataclass
class Inputs:
    workload: str
    logs: dict[str, str]
    jobs: list[Job]
    trials: int = 0               # histogram-trials only
    distinct_steps: int = 0       # sum of T over distinct (sequence, function)


def _child_seed(r: random.Random) -> int:
    return r.getrandbits(63)


def generate(workload: str, seed: int, sizes: dict | None = None) -> Inputs:
    """Seeded inputs and references for one workload."""
    from continualdp import (
        GraphFunction,
        additive_error,
        sensitivity_bound,
        static_sensitivity,
        theoretical_release_error,
        threshold_budget,
    )

    p = dict((sizes or FULL)[workload])
    r = random.Random(f"{workload}:{seed}")

    def diff_bound(name, regime, T, **kw):
        f = GraphFunction(name, k=kw.pop("k", None))
        gamma = sensitivity_bound(f, "edge", regime, **kw)
        return theoretical_release_error(gamma, EPSILON, DELTA, T)

    if workload == "cli-dynamic":
        text, counts = gen_dynamic(r, p["n0"], p["m0"], p["T"])
        T = p["T"]
        job = Job("edge_count", "log", "edge_count", T,
                  diff_bound("edge_count", "fully-dynamic", T),
                  dict(enumerate(counts, start=1)), {"seed": _child_seed(r)})
        return Inputs(workload, {"log": text}, [job], distinct_steps=T)

    if workload == "local-incremental":
        n, T, W, D = p["n"], p["T"], p["W"], p["D"]
        text, snaps = gen_incremental(r, n, T, p["per_step"], W=W, D=D, path=True)
        steps = [t for t in snaps if t >= 1]
        jobs = [
            Job("triangle_count", "log", "triangle_count", T,
                diff_bound("triangle_count", "incremental", T, D=D),
                {t: ref_triangles(n, snaps[t]) for t in steps},
                {"D": D, "seed": _child_seed(r)}),
            Job("kstar_count", "log", "kstar_count", T,
                diff_bound("kstar_count", "incremental", T, k=2, D=D),
                {t: ref_kstar2(n, snaps[t]) for t in steps},
                {"k": 2, "D": D, "seed": _child_seed(r)}),
            Job("mst_weight", "log", "mst_weight", T,
                diff_bound("mst_weight", "incremental", T, W=W),
                {t: ref_mst(n, snaps[t]) for t in steps},
                {"W": W, "seed": _child_seed(r)}),
        ]
        return Inputs(workload, {"log": text}, jobs, distinct_steps=3 * T)

    if workload == "histogram-trials":
        n, T, D = p["n"], p["T"], p["D"]
        text, snaps = gen_incremental(r, n, T, 1, D=D)
        # The experiment file holds only per-trial errors; child.py records
        # each trial's exact histograms at the sampled steps to check here.
        hists = {t: ref_histogram(n, e) for t, e in snaps.items() if t >= 1}
        if max(d for d, c in enumerate(hists[T]) if c) > D:
            raise ValueError(f"generated degrees exceed the declared D={D}")
        job = Job("degree_histogram", "log", "degree_histogram", T,
                  diff_bound("degree_histogram", "incremental", T, D=D),
                  hists, {"D": D, "seed": _child_seed(r)})
        return Inputs(workload, {"log": text}, [job],
                      trials=p["trials"], distinct_steps=T)

    if workload == "monotone-mixed":
        n, T, W = p["n"], p["T"], p["W"]
        dn, dT = p["dense_n"], p["dense_T"]
        text, snaps = gen_incremental(r, n, T, 1, W=W, path=True)
        dtext, dsnaps = gen_incremental(r, dn, dT, 1)

        def alpha(name, r_range, w, T_):
            rho = static_sensitivity(GraphFunction(name), w)
            return additive_error(EPSILON, BETA, DELTA, r_range, rho, T_)

        c, dc = threshold_budget(BETA, n * W), threshold_budget(BETA, dn)

        match = {t: ref_matching(n, e) for t, e in snaps.items()}
        jobs = [
            Job("matching", "seq", "max_cardinality_matching", T,
                alpha("max_cardinality_matching", n * W, W, T),
                {t: v for t, v in match.items() if t >= 1},
                {"W": W, "r": n * W, "seed": _child_seed(r)}, c),
            Job("min_cut", "seq", "min_cut", T,
                alpha("min_cut", n * W, W, T),
                {t: ref_min_cut(n, e) for t, e in snaps.items() if t >= 1},
                {"W": W, "r": n * W, "seed": _child_seed(r)}, c),
            # step t of the reversed sequence is forward step T - t
            Job("matching_reversed", "seq", "max_cardinality_matching", T,
                alpha("max_cardinality_matching", n * W, W, T),
                {T - t: v for t, v in match.items() if t < T},
                {"W": W, "r": n * W, "reverse": True, "seed": _child_seed(r)}, c),
            Job("densest", "dense", "densest_subgraph", dT,
                alpha("densest_subgraph", dn, 1, dT),
                {t: ref_densest(dn, e) for t, e in dsnaps.items() if t >= 1},
                {"W": 1, "r": dn, "seed": _child_seed(r)}, dc),
        ]
        return Inputs(workload, {"seq": text, "dense": dtext}, jobs,
                      distinct_steps=3 * T + dT)

    raise ValueError(f"unknown workload {workload!r}")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_release(job: Job, ts, released, true=None, *, monotone=False) -> list[str]:
    """Check one release's per-step output against the job's references.

    ``true`` is the library's own exact value per step, when it exposes
    one; it must equal the reference where a reference exists, and is
    the centre of the error bound elsewhere.
    """
    if len(ts) != job.T or len(released) != job.T:
        return [f"{job.name}: {len(released)} rows, expected {job.T}"]
    if list(ts) != list(range(1, job.T + 1)):
        return [f"{job.name}: time column is not 1..{job.T}"]
    errs = check_ladder(job, released) if monotone else []
    for i, (t, out) in enumerate(zip(ts, released)):
        ref = job.refs.get(t)
        lib = None if true is None else true[i]
        if lib is not None and ref is not None and lib != ref:
            errs.append(f"{job.name}: t={t} exact value {lib} != reference {ref}")
        centre = ref if ref is not None else lib
        if not _finite(out):
            errs.append(f"{job.name}: t={t} released {out!r} is not finite")
        elif centre is None:
            continue
        elif monotone:
            if centre >= 1 and not (centre - job.bound <= out <= (1 + BETA) * centre + job.bound):
                errs.append(f"{job.name}: t={t} output {out} outside the sandwich of {centre}")
        elif abs(out - centre) > job.bound:
            errs.append(f"{job.name}: t={t} |{out} - {centre}| exceeds bound {job.bound:.3f}")
        if len(errs) >= 5:
            break
    return errs


def check_ladder(job: Job, released) -> list[str]:
    """Monotone outputs are (1+beta)^k for whole k in 0..c, and never fall
    in the order the mechanism processed them (reversed for a decremental
    job).  At these sizes alpha is far larger than any value, so these
    checks, not the sandwich, are the ones a wrong ladder can fail."""
    order = released[::-1] if job.params.get("reverse") else released
    ks = []
    for out in order:
        k = round(math.log(out, 1 + BETA)) if _finite(out) and out > 0 else -1
        if not (0 <= k <= job.budget and math.isclose(out, (1 + BETA) ** k, rel_tol=1e-9)):
            return [f"{job.name}: output {out!r} is not (1+beta)^k with 0 <= k <= {job.budget}"]
        ks.append(k)
    if any(b < a for a, b in zip(ks, ks[1:])):
        return [f"{job.name}: outputs fall in processing order"]
    return []


def _trim(hist) -> list:
    """A histogram without its trailing empty bins, so bin counts may differ."""
    hist = list(hist)
    while hist and hist[-1] == 0:
        hist.pop()
    return hist


def read_table(path: Path) -> list[dict[str, str]]:
    """Rows of a CSV written by the CLI, skipping its ``#`` metadata lines."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_cli_release(job: Job, path: Path) -> list[str]:
    """Release file: only its ``t`` and ``released`` columns are read."""
    try:
        rows = read_table(path)
        ts = [int(row["t"]) for row in rows]
        released = [float(row["released"]) for row in rows]
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{job.name}: unreadable release file: {exc!r}"]
    return check_release(job, ts, released)


def check_experiment(job: Job, trials: int, path: Path, exact_path: Path) -> list[str]:
    """Experiment file: one row per trial, each max error within the bound.
    Exact values: each trial's histograms at the sampled steps, as child.py
    recorded them from the CLI's release calls, equal the references."""
    try:
        rows = read_table(path)
        idx = [int(row["trial"]) for row in rows]
        errors = [float(row["max_abs_error"]) for row in rows]
        exact = json.loads(exact_path.read_text())["trials"]
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{job.name}: unreadable experiment output: {exc!r}"]
    if idx != list(range(trials)):
        return [f"{job.name}: trials {idx}, expected 0..{trials - 1}"]
    errs = [
        f"{job.name}: trial {i} max error {e!r} not within bound {job.bound:.3f}"
        for i, e in enumerate(errors)
        if not (_finite(e) and 0 <= e <= job.bound)
    ]
    if len(exact) != trials:
        return errs + [f"{job.name}: exact values of {len(exact)} trials, expected {trials}"]
    for i, by_step in enumerate(exact):
        for t, ref in job.refs.items():
            lib = by_step.get(str(t))
            if not isinstance(lib, list) or _trim(lib) != _trim(ref):
                errs.append(f"{job.name}: trial {i} t={t} histogram {lib} != reference {ref}")
                break
    return errs


def check_library(inputs: Inputs, result: dict) -> list[str]:
    """Output of child.py's library mode: one entry per job, in order."""
    outs = result.get("jobs", [])
    if len(outs) != len(inputs.jobs):
        return [f"{len(outs)} job results, expected {len(inputs.jobs)}"]
    errs = []
    for job, out in zip(inputs.jobs, outs):
        errs += check_release(job, out["t"], out["released"], out["true"],
                              monotone=job.function in MONOTONE)
    return errs

