"""Shared helpers for the test suite."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

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
        mp.setattr("continualdp.monotone.sample_laplace", lambda rng, b: 0.0)
        yield


@pytest.fixture
def zero_noise():
    """Releases in the test draw zero noise (see ``zero_noise_draws``)."""
    with zero_noise_draws():
        yield


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
) -> GraphSequence:
    """A random valid sequence of the requested kind (seeded)."""
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
                v = cand[rng.integers(0, len(cand))]
                v_del.add(v)
                e_del |= {e for e in edges if v in e}

        survivors = present - v_del
        surviving_edges = {e for e in edges if e not in e_del}

        if kind in ("incremental", "fully-dynamic"):
            if rng.uniform() < 0.5:
                v = next_id
                next_id += 1
                v_ins.add(v)
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
