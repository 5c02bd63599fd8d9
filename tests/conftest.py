"""Shared helpers for the test suite."""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from continualdp import Graph, GraphSequence, RandomSource, Update, edge_key


@contextmanager
def zero_noise_draws():
    """Within the block every Laplace draw of the binary mechanism and of
    the sparse vector reads 0 and consumes no randomness.  A binary
    mechanism draws all its noise when it is built, so it must be built
    inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("continualdp.counting.laplace_block", lambda rng, b, n: np.zeros(n))
        mp.setattr("continualdp.counting.laplace_array", lambda rng, b, n: array("d", [0.0]) * n)
        mp.setattr("continualdp.monotone.sample_laplace", lambda rng, b: 0.0)
        yield


@pytest.fixture
def zero_noise():
    """Releases in the test draw zero noise (see ``zero_noise_draws``)."""
    with zero_noise_draws():
        yield


class CliResult(NamedTuple):
    exit_code: int
    output: str
    exception: BaseException | None


class CliRunner:
    """Runs a CLI entry point in this process, as ``click.testing.CliRunner``
    does: stdout and stderr go to one ``output`` in the order written, the
    code of a ``SystemExit`` is the exit code, and any other exception
    exits 1 and is kept as ``exception``."""

    def invoke(self, main, args) -> CliResult:
        out, code, exception = io.StringIO(), 0, None
        with redirect_stdout(out), redirect_stderr(out):
            try:
                main(args=list(args), prog_name="continual-dp")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:
                code, exception = 1, exc
        return CliResult(code, out.getvalue(), exception)


def loaded_modules(code: str, *modules: str) -> list[str]:
    """Which of ``modules`` are loaded after ``code`` runs in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += f"\nimport sys; print([m for m in {list(modules)!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def random_sequence(
    rng: RandomSource,
    *,
    n_max: int = 6,
    T_max: int = 10,
    kind: str = "incremental",
    W_max: int = 3,
    nodes_per_step: int = 1,
) -> GraphSequence:
    """A random valid sequence of the requested kind (seeded).

    A step inserts at most ``nodes_per_step`` nodes and deletes at most as
    many; above 1, each step that inserts or deletes nodes draws how many.
    The default 1 keeps the draws that the golden files were built from.
    """

    def node_count() -> int:
        return 1 if nodes_per_step == 1 else rng.integers(1, nodes_per_step + 1)
    n0 = rng.integers(1, n_max + 1)
    next_id = n0
    present = set(range(n0))
    edges: dict[tuple[int, int], int] = {}
    for u in range(n0):
        for v in range(u + 1, n0):
            if rng.uniform() < 0.3:
                edges[(u, v)] = 1 + rng.integers(0, W_max)
    initial = Graph(present, dict(edges))

    T = rng.integers(1, T_max + 1)
    updates = []
    for _ in range(T):
        v_ins: set[int] = set()
        v_del: set[int] = set()
        e_ins: dict[tuple[int, int], int] = {}
        e_del: set[tuple[int, int]] = set()

        if kind in ("decremental", "fully-dynamic"):
            keys = sorted(edges)
            for _ in range(rng.integers(0, 3)):
                if keys:
                    e = keys.pop(rng.integers(0, len(keys)))
                    e_del.add(e)
            if present and rng.uniform() < 0.2:
                cand = sorted(present)
                for _ in range(min(node_count(), len(cand))):
                    v = cand.pop(rng.integers(0, len(cand)))
                    v_del.add(v)
                    e_del |= {e for e in edges if v in e}

        survivors = present - v_del
        surviving_edges = {e for e in edges if e not in e_del}

        if kind in ("incremental", "fully-dynamic"):
            if rng.uniform() < 0.5:
                for _ in range(node_count()):
                    v_ins.add(next_id)
                    next_id += 1
            cand = sorted(survivors | v_ins)
            for _ in range(rng.integers(0, 3)):
                if len(cand) >= 2:
                    a = cand[rng.integers(0, len(cand))]
                    b = cand[rng.integers(0, len(cand))]
                    if a != b:
                        e = edge_key(a, b)
                        if e not in surviving_edges and e not in e_ins:
                            e_ins[e] = 1 + rng.integers(0, W_max)

        for e in e_del:
            edges.pop(e, None)
        present = survivors | v_ins
        edges.update(e_ins)
        updates.append(Update(v_ins=v_ins, v_del=v_del, e_ins=e_ins, e_del=e_del))

    seq = GraphSequence(initial, updates)
    seq.validate()
    return seq


def max_degree(seq: GraphSequence) -> int:
    """Largest degree in G_0..G_T, read from snapshots of every step."""
    graphs = (seq.initial, *seq.materialize())
    return max((d for g in graphs for d in g.degrees().values()), default=0)
