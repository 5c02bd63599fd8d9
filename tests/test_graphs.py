from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continualdp import (
    AdjacencyKind,
    AdjacencyWitness,
    Graph,
    GraphFunction,
    GraphSequence,
    RandomSource,
    SequenceKind,
    Update,
    adjacent_pair,
    apply_update,
    check_adjacency,
    edge_key,
    reversed_sequence,
    unbounded_pair,
)
from continualdp.errors import DegreeViolation, InvalidUpdate, LengthMismatch
from continualdp.oracle import OracleScope, _draw_pair
from continualdp.release import exact_values

import sequence_reference as seq_ref
from conftest import max_degree, random_sequence
from test_generators import CASES as GENERATOR_CASES

EDGES = GraphFunction("edge_count")


def test_edge_key_canonical():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    with pytest.raises(InvalidUpdate):
        edge_key(2, 2)


def test_graph_validation():
    with pytest.raises(InvalidUpdate):
        Graph({0, 1}, {(1, 0): 1})  # non-canonical key
    with pytest.raises(InvalidUpdate):
        Graph({0, 1}, {(0, 2): 1})  # endpoint outside node set
    with pytest.raises(InvalidUpdate):
        Graph({0, 1}, {(0, 1): 0})  # non-positive weight


def test_graph_accessors():
    g = Graph.from_edges([(0, 1, 2), (1, 2, 5)], extra_nodes=[7])
    assert g.n == 4 and g.m == 2
    assert g.degrees() == {0: 1, 1: 2, 2: 1, 7: 0}
    assert g.adjacency()[1] == {0: 2, 2: 5}
    assert g.max_weight() == 5


def test_update_rejects_same_step_node_insert_delete():
    with pytest.raises(InvalidUpdate):
        Update(v_ins={1}, v_del={1})


def test_apply_update_deletions_before_insertions():
    g = Graph.from_edges([(0, 1, 3)])
    # weight change: delete and re-insert the same key in one step
    g2 = apply_update(g, Update(e_del={(0, 1)}, e_ins={(0, 1): 7}))
    assert g2.edges == {(0, 1): 7}


REJECTIONS = [
    (Update(e_del={(0, 2)}), "deleting absent edge (0, 2)"),
    (Update(v_del={5}), "deleting absent nodes [5]"),
    (Update(v_del={0}), "node 0 deleted while edge (0, 1) survives"),
    (Update(v_ins={1}), "inserting already-present nodes [1]"),
    (Update(e_ins={(0, 1): 2}), "inserting already-present edge (0, 1)"),
    (Update(e_ins={(0, 9): 1}), "inserting edge (0, 9) with an absent endpoint"),
]


@pytest.mark.parametrize(
    "update, message",
    [pytest.param(u, msg, id=f"update{i}") for i, (u, msg) in enumerate(REJECTIONS)],
)
def test_apply_update_rejections(update, message):
    g = Graph.from_edges([(0, 1)])
    with pytest.raises(InvalidUpdate) as exc:
        apply_update(g, update)
    assert str(exc.value) == message
    # every pass over a sequence applies the same rule and names the step
    seq = GraphSequence(g, [update])
    # D=0 is exceeded at G_0: the invalid update still wins
    passes = [lambda: list(seq.iter_graphs()), seq.materialize,
              lambda: exact_values(seq, EDGES, D=0), lambda: reversed_sequence(seq)]
    for run in passes:
        with pytest.raises(InvalidUpdate) as exc:
            run()
        assert str(exc.value) == f"at t=1: {message}"


def test_node_deletion_error_names_smallest_surviving_edge():
    g = Graph.from_edges([(2, 3), (1, 4), (0, 4)])
    with pytest.raises(InvalidUpdate) as exc:
        apply_update(g, Update(v_del={3, 4}))
    assert str(exc.value) == "node 4 deleted while edge (0, 4) survives"


def test_update_puts_keys_in_order():
    u = Update(e_ins={(3, 1): 2, (0, 5): 1}, e_del=[(4, 2)])
    assert list(u.e_ins.items()) == [((1, 3), 2), ((0, 5), 1)]
    assert u.e_del == {(2, 4)}
    assert Update(e_ins=[(3, 1, 2)]).e_ins == {(1, 3): 2}


@pytest.mark.parametrize("field", ["e_ins", "e_del"])
def test_update_rejects_self_loops(field):
    arg = {(2, 2): 1} if field == "e_ins" else [(2, 2)]
    with pytest.raises(InvalidUpdate, match=r"^self-loop on node 2$"):
        Update(**{field: arg})


@pytest.mark.parametrize("w", [0, -1, "1"])
def test_update_rejects_weights_that_are_not_positive_integers(w):
    with pytest.raises(InvalidUpdate) as exc:
        Update(e_ins={(1, 0): w})
    assert str(exc.value) == f"insert of edge (0, 1) with non-positive weight {w!r}"


def test_update_checks_weights_after_keys_and_nodes():
    # a self-loop anywhere, then a node inserted and deleted, then a weight
    with pytest.raises(InvalidUpdate, match=r"^self-loop on node 2$"):
        Update(e_ins={(0, 1): 0, (2, 2): 1})
    with pytest.raises(InvalidUpdate, match="inserted and deleted"):
        Update(v_ins={1}, v_del={1}, e_ins={(0, 1): 0})
    # only the last weight given for a key is checked
    assert Update(e_ins={(1, 0): 0, (0, 1): 2}).e_ins == {(0, 1): 2}
    assert Update(e_ins=[(0, 1, 0), (1, 0, 2)]).e_ins == {(0, 1): 2}


def test_empty_updates_are_equal_and_share_empty_fields():
    a, b = Update(), Update(v_ins=(), e_del=[])
    assert a == b and hash(a) == hash(b)
    assert a.v_ins is b.v_del is a.e_del
    u = Update(v_ins=[1], v_del={2}, e_ins=[(0, 1, 1)], e_del=[(0, 2)])
    for x in (a, u):
        assert [type(x.v_ins), type(x.v_del), type(x.e_ins), type(x.e_del)] == [
            frozenset, frozenset, dict, frozenset
        ]


def test_update_copies_the_edge_dict():
    e_ins = {(0, 1): 1}
    u = Update(e_ins=e_ins)
    assert u.e_ins is not e_ins
    e_ins[(0, 1)] = 5
    e_ins[(1, 2)] = 1
    assert u.e_ins == {(0, 1): 1}


def test_kind_matches_the_rule_from_scratch():
    rng = RandomSource(20261018)
    for i in range(300):
        kind = ("incremental", "decremental", "fully-dynamic")[i % 3]
        seq = random_sequence(rng.child(i), kind=kind)
        if not any(u.has_deletions for u in seq.updates):
            want = SequenceKind.INCREMENTAL
        elif not any(u.has_insertions for u in seq.updates):
            want = SequenceKind.DECREMENTAL
        else:
            want = SequenceKind.FULLY_DYNAMIC
        assert seq.kind is want


def test_sequence_kind():
    g = Graph.from_edges([(0, 1)])
    assert GraphSequence(g, [Update(e_ins={(0, 2): 1}, v_ins={2})]).kind is SequenceKind.INCREMENTAL
    assert GraphSequence(g, [Update(e_del={(0, 1)})]).kind is SequenceKind.DECREMENTAL
    assert (
        GraphSequence(g, [Update(e_del={(0, 1)}), Update(e_ins={(0, 1): 2})]).kind
        is SequenceKind.FULLY_DYNAMIC
    )


def test_materialize_matches_iter_graphs():
    rng = RandomSource(42)
    for i in range(50):
        seq = random_sequence(rng.child(i), kind="fully-dynamic")
        snapshots = seq.materialize()
        for snap, view in zip(snapshots, seq.iter_graphs()):
            assert snap == Graph(view.nodes, view.edges)


def test_materialize_reports_offending_step():
    g = Graph.from_edges([(0, 1)])
    seq = GraphSequence(g, [Update(), Update(e_del={(0, 2)})])
    with pytest.raises(InvalidUpdate, match="t=2"):
        seq.materialize()


def test_degree_and_weight_bounds():
    g = Graph.from_edges([(0, 1, 4)])
    seq = GraphSequence(
        g, [Update(v_ins={5}, e_ins={(0, 5): 2}), Update(e_del={(0, 5)}, v_del={5})]
    )
    assert exact_values(seq, EDGES, D=2) == [2, 1]
    with pytest.raises(DegreeViolation, match="max degree 2 exceeds declared D=1"):
        exact_values(seq, EDGES, D=1)
    assert seq.max_weight() == 4


def test_max_degree_covers_initial_graph():
    # a decremental log is evaluated backward, which never visits G_0
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    seq = GraphSequence(g, [Update(e_del={(0, 3)})])
    assert exact_values(seq, EDGES, D=3) == [2]
    with pytest.raises(DegreeViolation, match="max degree 3 exceeds declared D=2"):
        exact_values(seq, EDGES, D=2)


@pytest.mark.parametrize("kind", ["incremental", "decremental", "fully-dynamic"])
def test_max_degree_matches_snapshots(kind):
    rng = RandomSource(31)
    for i in range(50):
        seq = random_sequence(rng.child(i), kind=kind)
        top = max_degree(seq)
        assert exact_values(seq, EDGES, D=top) == exact_values(seq, EDGES)
        with pytest.raises(DegreeViolation, match=f"max degree {top} exceeds declared D={top - 1}$"):
            exact_values(seq, EDGES, D=top - 1)


def test_reversed_sequence_involution():
    rng = RandomSource(7)
    for i in range(50):
        seq = random_sequence(rng.child(i), kind="fully-dynamic", nodes_per_step=1 + i % 3)
        rev = reversed_sequence(seq)
        assert rev.initial == seq.materialize()[-1]
        for r in rev.updates:
            # built without Update's check, each field is what Update(...) makes
            want = Update(r.v_ins, r.v_del, r.e_ins, r.e_del)
            assert r == want
            assert all(type(getattr(r, f)) is type(getattr(want, f)) for f in Update.__slots__)
        back = reversed_sequence(rev)
        assert back.initial == seq.initial
        assert back.materialize() == seq.materialize()


def test_reversed_swaps_incremental_and_decremental():
    rng = RandomSource(9)
    seq = random_sequence(rng, kind="incremental")
    assert all(not u.has_insertions for u in reversed_sequence(seq).updates)


# ---- adjacency relations ----


def _base_pair():
    g = Graph.from_edges([(0, 1)], extra_nodes=[2, 3])
    a = GraphSequence(g, [Update(e_ins={(1, 2): 1}), Update(e_ins={(2, 3): 1})])
    return g, a


def test_edge_event_adjacency_extra_insert():
    g, a = _base_pair()
    b = GraphSequence(
        g, [Update(e_ins={(1, 2): 1, (0, 3): 2}), Update(e_ins={(2, 3): 1})]
    )
    w = check_adjacency(a, b, AdjacencyKind.EDGE_EVENT)
    assert w is not None and w.element == (0, 3) and w.t_star == 1


def test_edge_event_adjacency_extra_delete():
    g = Graph.from_edges([(0, 1), (1, 2)])
    a = GraphSequence(g, [Update(e_del={(0, 1)})])
    b = GraphSequence(g, [Update(e_del={(0, 1), (1, 2)})])
    w = check_adjacency(a, b, AdjacencyKind.EDGE_EVENT)
    assert w is not None and w.element == (1, 2)


def test_edge_event_rejects_weight_change():
    # same key with different weights is not a single-edge difference
    g, a = _base_pair()
    b = GraphSequence(g, [Update(e_ins={(1, 2): 3}), Update(e_ins={(2, 3): 1})])
    assert check_adjacency(a, b, AdjacencyKind.EDGE_EVENT) is None


def test_edge_event_rejects_two_diffs():
    g, a = _base_pair()
    b = GraphSequence(g, [Update(), Update()])
    assert check_adjacency(a, b, AdjacencyKind.EDGE_EVENT) is None


def test_identical_sequences_not_adjacent():
    _g, a = _base_pair()
    for kind in AdjacencyKind:
        assert check_adjacency(a, a, kind) is None


def test_differing_initial_graphs_not_adjacent():
    g1 = Graph.from_edges([(0, 1)], extra_nodes=[2, 3])
    g2 = Graph.from_edges([(0, 1, 2)], extra_nodes=[2, 3])
    u = [Update(e_ins={(1, 2): 1})]
    assert check_adjacency(GraphSequence(g1, u), GraphSequence(g2, u), "edge-event") is None


def test_length_mismatch_raises():
    _g, a = _base_pair()
    b = GraphSequence(a.initial, a.updates[:1])
    with pytest.raises(LengthMismatch):
        check_adjacency(a, b, AdjacencyKind.EDGE_EVENT)


def test_node_event_adjacency():
    g = Graph({0, 1})
    a = GraphSequence(
        g,
        [
            Update(v_ins={2}, e_ins={(0, 2): 1, (1, 2): 1}),
            Update(e_ins={(0, 1): 1}),
        ],
    )
    b = GraphSequence(g, [Update(), Update(e_ins={(0, 1): 1})])
    w = check_adjacency(a, b, AdjacencyKind.NODE_EVENT)
    assert w is not None and w.element == 2 and w.t_star == 1


def test_node_event_rejects_non_incident_edge_diff():
    g = Graph({0, 1})
    a = GraphSequence(
        g, [Update(v_ins={2}, e_ins={(0, 2): 1}), Update(e_ins={(0, 1): 1})]
    )
    b = GraphSequence(g, [Update(), Update()])
    assert check_adjacency(a, b, AdjacencyKind.NODE_EVENT) is None


def test_edge_user_adjacency():
    g = Graph.from_edges([(0, 1)], extra_nodes=[2])
    a = GraphSequence(
        g, [Update(e_del={(0, 1)}), Update(e_ins={(0, 1): 1}), Update()]
    )
    b = GraphSequence(g, [Update(), Update(), Update()])
    w = check_adjacency(a, b, AdjacencyKind.EDGE_USER)
    assert w is not None and w.element == (0, 1)


def test_edge_user_rejects_two_keys():
    g = Graph.from_edges([(0, 1), (1, 2)])
    a = GraphSequence(g, [Update(e_del={(0, 1)}), Update(e_del={(1, 2)})])
    b = GraphSequence(g, [Update(), Update()])
    assert check_adjacency(a, b, AdjacencyKind.EDGE_USER) is None


# ---- adjacency against the Update-based witnesses ----


def _same_as_reference(a, b):
    """Check every relation on (a, b) against the reference; return the
    kinds for which the pair is adjacent."""
    adjacent = set()
    for kind in AdjacencyKind:
        got = check_adjacency(a, b, kind)
        assert got == seq_ref.check_adjacency(a, b, kind), (kind, a, b)
        if got is not None:
            adjacent.add(kind)
    return adjacent


def _oracle_draws():
    """Seeded oracle draws for every adjacency and regime."""
    pairs = []
    cells = product(("edge", "node"), ("incremental", "decremental", "fully-dynamic"), (None, 3))
    for c, (adjacency, regime, d_max) in enumerate(cells):
        scope = OracleScope(n_max=5, T_max=4, W_max=2, D_max=d_max,
                            adjacency=adjacency, regime=regime)
        rng = RandomSource(4400 + c)
        for i in range(120):
            pair = _draw_pair(scope, rng.child(i))
            if pair is not None:
                pairs.append(pair)
    return pairs


def test_adjacency_of_oracle_draws_matches_reference():
    pairs = _oracle_draws()
    found = set()
    for a, b in pairs:
        found |= _same_as_reference(a, b)
        found |= _same_as_reference(b, a)
    assert found == set(AdjacencyKind)
    # cross pairs: any two draws that share an initial graph and T
    groups: dict = {}
    for seq in (s for pair in pairs for s in pair):
        group = groups.setdefault((seq.initial, seq.T), [])
        if len(group) < 12:
            group.append(seq)
    crossed = 0
    for group in groups.values():
        for a in group:
            for b in group:
                _same_as_reference(a, b)
                crossed += 1
    assert crossed > len(pairs)


def test_adjacency_of_generator_pairs_matches_reference():
    event = {"edge": AdjacencyKind.EDGE_EVENT, "node": AdjacencyKind.NODE_EVENT}
    for target, adjacency, kwargs in GENERATOR_CASES:
        kind = event[adjacency]
        for sigma, flip in (([1, 0, 1], 2), ([0, 1, 1, 0], 1), ([1, 1, 0, 1], 4)):
            pair = adjacent_pair(target, adjacency, sigma, flip, **kwargs)
            assert kind in _same_as_reference(pair.a, pair.b), target
            assert kind in _same_as_reference(pair.b, pair.a), target
    for f, adjacency in [
        (GraphFunction("triangle_count"), "edge"),
        (GraphFunction("mst_weight"), "edge"),
        (GraphFunction("edge_count"), "node"),
        (GraphFunction("kstar_count", k=2), "node"),
        (GraphFunction("min_cut"), "node"),
        (GraphFunction("max_weight_matching"), "edge"),
        (GraphFunction("max_cardinality_matching"), "node"),
    ]:
        a, b = unbounded_pair(f, adjacency, 4, W=3)
        assert event[adjacency] in _same_as_reference(a, b), f.label()


def test_node_inserted_in_one_and_deleted_in_the_other_is_one_node_difference():
    g = Graph({0, 1, 2})
    a = GraphSequence(g, [Update(), Update(v_ins={3}, e_ins={(0, 3): 1})])
    b = GraphSequence(g, [Update(), Update(v_del={3})])
    assert _same_as_reference(a, b) == {AdjacencyKind.NODE_EVENT}
    assert check_adjacency(a, b, "node-event") == AdjacencyWitness(
        AdjacencyKind.NODE_EVENT, 3, 2)


@pytest.mark.parametrize("a_steps", [
    [Update(v_ins={2}), Update(v_ins={3})],  # two nodes at two steps
    [Update(v_ins={2}), Update(v_del={2})],  # one node at two steps
    [Update(v_ins={2, 3})],  # two nodes at one step
    [Update(v_ins={2}, e_ins={(0, 1): 1})],  # an edge not incident to v*, same step
    [Update(v_ins={2}, e_ins={(0, 2): 1}), Update(e_del={(0, 1)})],  # and at a later step
])
def test_node_event_refuses_more_than_one_node_at_one_step(a_steps):
    g = Graph.from_edges([(0, 1)])
    a = GraphSequence(g, a_steps)
    b = GraphSequence(g, [Update()] * len(a_steps))
    assert AdjacencyKind.NODE_EVENT not in _same_as_reference(a, b)


def test_a_weight_only_change_is_user_level_adjacent_only():
    g = Graph({0, 1, 2})
    a = GraphSequence(g, [Update(e_ins={(0, 1): 1, (1, 2): 2}), Update(e_del={(0, 1)})])
    b = GraphSequence(g, [Update(e_ins={(0, 1): 3, (1, 2): 2}), Update(e_del={(0, 1)})])
    assert _same_as_reference(a, b) == {AdjacencyKind.EDGE_USER}
    assert check_adjacency(a, b, "edge-user") == AdjacencyWitness(
        AdjacencyKind.EDGE_USER, (0, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 3))
def test_random_sequences_round_trip_through_reversal(seed, nodes_per_step):
    seq = random_sequence(RandomSource(seed), n_max=5, T_max=6, kind="fully-dynamic",
                          nodes_per_step=nodes_per_step)
    back = reversed_sequence(reversed_sequence(seq))
    assert back.materialize() == seq.materialize()
    assert back == seq


@pytest.mark.parametrize(
    "make",
    [
        lambda: Graph({1, 2}, {(True, 2): 1}),
        lambda: Graph({1, 2}, {(1, 2.0): 1}),
        lambda: Update(e_ins={(1.0, 2): 1}),
        lambda: Update(e_ins={(True, 2): 1}),
        lambda: Update(e_ins=[(1, 2.0, 1)]),
        lambda: Update(e_del=[(True, 2)]),
        lambda: Update(e_del=[(2, 1.5)]),
        lambda: edge_key("1", 2),
    ],
    ids=["graph-bool", "graph-float", "ins-float", "ins-bool", "ins-triple-float",
         "del-bool", "del-float", "edge-key-str"],
)
def test_non_int_endpoints_are_refused(make):
    with pytest.raises(InvalidUpdate, match="is not an int"):
        make()


@pytest.mark.parametrize("x", [True, 1.0, 1])
def test_an_accepted_endpoint_survives_a_round_trip(x):
    # before the endpoint check, True and 1.0 were accepted and serialized
    # as "True-2" and "1.0-2", which the parser refuses
    from continualdp import parse_sequence, serialize_sequence

    try:
        seq = GraphSequence(Graph({1, 2}, {(x, 2): 1}),
                            [Update(e_del=[(x, 2)]), Update(e_ins={(x, 2): 3})])
    except InvalidUpdate:
        assert type(x) is not int
        return
    assert parse_sequence(serialize_sequence(seq)) == seq


def test_update_keeps_canonical_keys_as_given():
    k, j = (4, 9), (1, 7)
    u = Update(e_ins={k: 1}, e_del=[j, (8, 3)])
    assert next(iter(u.e_ins)) is k
    assert next(x for x in u.e_del if x == j) is j
    assert (3, 8) in u.e_del
    # a key that is not a tuple is rebuilt as one
    assert Update(e_del=[[2, 5]]).e_del == {(2, 5)}
