"""Running exact values on the DynamicGraph state against the from-scratch
evaluators, which stay the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continualdp import Graph, GraphFunction, GraphSequence, RandomSource, Update, evaluate
from continualdp import functions
from continualdp.errors import MissingTerminal
from continualdp.graphs import DynamicGraph
from continualdp.release import exact_values

from conftest import loaded_modules, random_sequence

LOCAL = [
    GraphFunction("edge_count"),
    *(GraphFunction("high_degree", tau=tau) for tau in (1, 2, 3)),
    GraphFunction("triangle_count"),
    *(GraphFunction("kstar_count", k=k) for k in (1, 2, 3)),
    GraphFunction("mst_weight"),
    GraphFunction("degree_histogram"),
]
MONOTONE = [
    GraphFunction("min_cut"),
    GraphFunction("st_min_cut", s=0, t=1),
    GraphFunction("max_cardinality_matching"),
    GraphFunction("densest_subgraph"),
]


def _outcome(f, g):
    """The value, or the type of the error the evaluation raised."""
    try:
        return evaluate(f, g)
    except MissingTerminal as exc:
        return type(exc)


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
    cases = LOCAL + MONOTONE
    # every value is kept on the same state from step ``start`` on
    for t, g in enumerate(seq.iter_graphs(), start=1):
        assert isinstance(g, DynamicGraph)
        if t < start:
            continue
        snap = Graph(g.nodes, g.edges)
        for f in cases:
            assert _outcome(f, g) == _outcome(f, snap), (t, f)
    if start <= seq.T:
        # every value is kept but edge_count and those whose evaluation raised
        raised = sum(isinstance(_outcome(f, snap), type) for f in cases)
        assert len(g.running) >= len(cases) - 1 - raised


def _values(initial: Graph, *updates: Update, f: str | GraphFunction = "triangle_count") -> list:
    # an empty first step makes the later steps run on the memoised value
    f = f if isinstance(f, GraphFunction) else GraphFunction(f)
    return exact_values(GraphSequence(initial, [Update(), *updates]), f)[1:]


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
    # bins run to the current max degree: the last step drops bin 2
    g = Graph.from_edges([(0, 1)], extra_nodes=[2])
    grow = Update(v_ins={3}, e_ins={(2, 3): 1, (1, 3): 1})
    shrink = Update(v_del={0}, e_del={(0, 1)})
    flatten = Update(e_del={(1, 3)})
    assert _values(g, grow, shrink, flatten, f="degree_histogram") == [
        (0, 2, 2), (0, 2, 1), (1, 2)]


def test_import_does_not_load_networkx():
    assert loaded_modules("import continualdp, continualdp.cli", "networkx") == []


@pytest.mark.parametrize("module", ["networkx", "numpy"])
def test_monotone_release_does_not_load(module):
    code = """
from continualdp import Graph, GraphFunction, GraphSequence, RandomSource, Update
from continualdp import monotone_release
seq = GraphSequence(Graph(range(4)), [Update(e_ins={(0, 1): 1, (2, 3): 1}),
                                      Update(e_ins={(1, 2): 1}), Update(e_ins={(0, 3): 1})])
for f in (GraphFunction("min_cut"), GraphFunction("st_min_cut", s=0, t=1),
          GraphFunction("max_cardinality_matching"), GraphFunction("densest_subgraph")):
    monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(1), r=8.0, W=1)
"""
    assert loaded_modules(code, module) == []


@pytest.mark.parametrize("f", MONOTONE, ids=lambda f: f.name)
def test_node_insert_then_edge_to_it_in_one_step(f):
    g = Graph.from_edges([(0, 1), (1, 2)])
    step = Update(v_ins={3}, e_ins={(2, 3): 1, (1, 3): 2})
    after = Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 3, 2)])
    assert _values(g, step, f=f) == [evaluate(f, after)]


def test_min_cut_insert_inside_and_across_the_kept_side():
    # the bridge (2, 3) is the only minimum cut, so the kept side is {3} or
    # its complement; (1, 4) stays on one side, (1, 3) crosses it
    g = Graph.from_edges([(0, 1, 2), (1, 2, 2), (0, 2, 2), (2, 3, 1), (0, 4, 5)])
    inside, across = Update(e_ins={(1, 4): 1}), Update(e_ins={(1, 3): 1})
    assert _values(g, inside, across, f="min_cut") == [1.0, 2.0]


def test_min_cut_insert_joining_two_components():
    g = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
    inside, join = Update(e_ins={(0, 2): 1}), Update(e_ins={(2, 3): 1})
    assert _values(g, inside, join, f="min_cut") == [0.0, 1.0]


def test_matching_augments_through_a_blossom_from_matched_endpoints():
    # two 5-cycles matched on {1,2},{3,4} and {6,7},{8,9}, so 0 and 5 are
    # free; (1, 6) joins two matched nodes, and the augmenting path
    # 0-4-3-2-1-6-7-8-9-5 needs a blossom from either free end
    matched = Update(e_ins={(1, 2): 1, (3, 4): 1, (6, 7): 1, (8, 9): 1})
    cycles = Update(e_ins={(0, 1): 1, (2, 3): 1, (0, 4): 1, (5, 6): 1, (7, 8): 1, (5, 9): 1})
    bridge = Update(e_ins={(1, 6): 1})
    assert _values(Graph(range(10)), matched, cycles, bridge,
                   f="max_cardinality_matching") == [4, 4, 5]


def test_matching_after_deleting_a_matched_edge():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    steps = Update(e_del={(0, 1)}), Update(e_ins={(0, 1): 1}), Update(e_ins={(0, 3): 1})
    assert _values(g, *steps, f="max_cardinality_matching") == [1, 2, 2]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_decremental_exact_values_equal_snapshot_evaluation(seed):
    seq = random_sequence(RandomSource(seed), n_max=9, T_max=12, kind="decremental")
    snaps = seq.materialize()
    for name in sorted(functions.FUNCTION_NAMES):
        f = GraphFunction(name, tau=2, k=2, s=0, t=1)
        want = [_outcome(f, g) for g in snaps]
        error = next((x for x in want if isinstance(x, type)), None)
        if error is None:
            assert exact_values(seq, f) == want, name
        else:
            with pytest.raises(error):
                exact_values(seq, f)


def test_decremental_mst_runs_kruskal_once(monkeypatch):
    calls = []
    kruskal = functions._kruskal
    monkeypatch.setattr(functions, "_kruskal", lambda g: calls.append(g.m) or kruskal(g))
    g = Graph.from_edges([(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1), (4, 5, 2), (0, 5, 3)])
    # every step deletes an edge of the minimum spanning forest
    steps = [Update(e_del={k}) for k in [(1, 2), (3, 4), (0, 1), (4, 5)]]
    values = exact_values(GraphSequence(g, steps), GraphFunction("mst_weight"))
    assert values == [11, 10, 8, 6]
    assert len(calls) == 1
