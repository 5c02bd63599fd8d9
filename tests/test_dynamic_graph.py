"""Running exact values on the DynamicGraph state against the from-scratch
evaluators, which stay the oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continualdp import Graph, GraphFunction, GraphSequence, RandomSource, Update, evaluate
from continualdp.graphs import DynamicGraph
from continualdp.release import exact_values

from conftest import random_sequence

LOCAL = [
    GraphFunction("edge_count"),
    *(GraphFunction("high_degree", tau=tau) for tau in (1, 2, 3)),
    GraphFunction("triangle_count"),
    *(GraphFunction("kstar_count", k=k) for k in (1, 2, 3)),
    GraphFunction("mst_weight"),
    GraphFunction("degree_histogram"),
]


def _with_weight_change(seq: GraphSequence, rng: RandomSource) -> GraphSequence:
    """Insert one step that deletes and re-inserts a present edge with a
    new weight, after a random step that leaves some edge present."""
    graphs = [seq.initial] + seq.materialize()
    steps = [t for t, g in enumerate(graphs) if g.edges]
    if not steps:
        return seq
    t = steps[rng.integers(0, len(steps))]
    keys = sorted(graphs[t].edges)
    k = keys[rng.integers(0, len(keys))]
    change = Update(e_del={k}, e_ins={k: 1 + graphs[t].edges[k] % 3})
    return GraphSequence(seq.initial, seq.updates[:t] + (change,) + seq.updates[t:])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    kind=st.sampled_from(["incremental", "decremental", "fully-dynamic"]),
    start=st.integers(min_value=1, max_value=4),
)
def test_running_values_equal_snapshot_evaluation(seed, kind, start):
    rng = RandomSource(seed)
    seq = random_sequence(rng.child("seq"), n_max=9, T_max=16, kind=kind)
    seq = _with_weight_change(seq, rng.child("change"))
    # oracle.diff_sensitivity bins a histogram over a pair's union universe
    wide = len(seq.node_universe()) + 3
    cases = [(f, None) for f in LOCAL] + [(GraphFunction("degree_histogram"), wide)]
    # every value is kept on the same state from step ``start`` on
    for t, g in enumerate(seq.iter_graphs(), start=1):
        assert isinstance(g, DynamicGraph)
        if t < start:
            continue
        snap = Graph(g.nodes, g.edges)
        for f, n_bins in cases:
            assert evaluate(f, g, n_bins=n_bins) == evaluate(f, snap, n_bins=n_bins), (t, f)
    assert len(g.running) == len(cases) - 1 or start > seq.T  # edge_count keeps none


def _values(initial: Graph, *updates: Update, f: str = "triangle_count") -> list:
    # an empty first step makes the later steps run on the memoised value
    return exact_values(GraphSequence(initial, [Update(), *updates]), GraphFunction(f))[1:]


def test_one_step_inserting_a_triangle_adds_one():
    g = Graph({0, 1, 2})
    assert _values(g, Update(e_ins={(0, 1): 1, (1, 2): 1, (0, 2): 1})) == [1]


def test_one_step_deleting_a_triangle_removes_one():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    assert _values(g, Update(e_del={(0, 1), (1, 2), (0, 2)})) == [0]


def test_one_step_inserting_two_triangles_on_a_shared_edge():
    g = Graph.from_edges([(0, 1)], extra_nodes=[2, 3])
    step = Update(e_ins={(0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 3): 1})
    assert _values(g, step) == [2]


def test_mst_tree_edge_deletion_takes_heavier_replacement():
    g = Graph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    assert _values(g, Update(e_del={(0, 1)}), Update(e_ins={(0, 1): 2}),
                   f="mst_weight") == [4, 3]


def test_mst_weight_change_of_a_tree_edge_in_one_step():
    g = Graph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 3), (2, 3, 2)])
    heavier = Update(e_del={(0, 1)}, e_ins={(0, 1): 5})  # leaves the tree
    lighter = Update(e_del={(0, 1)}, e_ins={(0, 1): 1})  # replaces (0, 2)
    assert _values(g, heavier, lighter, f="mst_weight") == [6, 4]


def test_mst_insert_joining_trees_and_replacing_the_heaviest_cycle_edge():
    g = Graph.from_edges([(0, 1, 3), (1, 2, 2), (3, 4, 1)])
    join = Update(e_ins={(2, 3): 3})
    shortcut = Update(e_ins={(0, 2): 1})
    assert _values(g, join, shortcut, f="mst_weight") == [9, 7]


def test_histogram_bins_follow_node_insertions_and_deletions():
    g = Graph.from_edges([(0, 1)], extra_nodes=[2])
    grow = Update(v_ins={3}, e_ins={(2, 3): 1, (1, 3): 1})
    shrink = Update(v_del={0}, e_del={(0, 1)})
    assert _values(g, grow, shrink, f="degree_histogram") == [(0, 2, 2, 0), (0, 2, 1, 0)]


def test_histogram_with_too_few_bins_raises_as_the_oracle_does():
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    state = DynamicGraph(g)
    f = GraphFunction("degree_histogram")
    with pytest.raises(IndexError):
        evaluate(f, Graph(g.nodes, g.edges), n_bins=3)
    with pytest.raises(IndexError):
        evaluate(f, state, n_bins=3)


def test_import_does_not_load_networkx():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, continualdp, continualdp.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
