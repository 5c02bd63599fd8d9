import pytest

from continualdp import (
    AdjacencyKind,
    Graph,
    GraphFunction,
    RandomSource,
    SequenceKind,
    adjacent_pair,
    apply_update,
    check_adjacency,
    evaluate,
    gen_event_level,
    gen_user_level,
    expected_values,
    mst_tightness_pair,
    spread_of,
    target_function,
    trans,
    unbounded_pair,
)
from continualdp.errors import (
    NodeSetMismatch,
    ParameterOutOfRange,
    SparedEdgeMissing,
    TooSmall,
)
from continualdp.generators import EVENT_TARGETS
from continualdp.release import exact_values


def random_sigma(rng, T):
    return [rng.integers(0, 2) for _ in range(T)]


CASES = [
    ("mst", "edge", dict(W=4)),
    ("mst", "node", dict(W=4)),
    ("min_cut", "edge", dict(W=3)),
    ("min_cut", "node", dict(W=3)),
    ("matching", "edge", dict(W=3)),
    ("matching", "node", dict(W=3)),
    ("edge_count", "edge", {}),
    ("high_degree", "edge", dict(tau=2)),
    ("degree_histogram", "edge", {}),
    ("triangle", "edge", {}),
    ("kstar", "edge", dict(k=3)),
    ("edge_count", "node", dict(D=5)),
    ("high_degree", "node", dict(D=5, tau=3)),
    ("degree_histogram", "node", dict(D=5)),
    ("triangle", "node", dict(D=5)),
    ("kstar", "node", dict(D=5, k=4)),
]


def _closed_form_value(f, g, target):
    val = evaluate(f, g)
    if f.name == "degree_histogram":
        return val[2] if len(val) > 2 else 0
    return val


@pytest.mark.parametrize("target,adjacency,kwargs", CASES)
def test_generator_matches_closed_form(target, adjacency, kwargs):
    rng = RandomSource(hash((target, adjacency)) & 0xFFFF)
    T = 6 if target == "min_cut" and adjacency == "edge" else 16
    sigma = random_sigma(rng, T)
    f = target_function(target, tau=kwargs.get("tau"), k=kwargs.get("k"))
    seq = gen_event_level(target, adjacency, sigma, **kwargs)
    expect = expected_values(
        target, adjacency, sigma, W=kwargs.get("W", 1), D=kwargs.get("D")
    )
    for g, want in zip(seq.iter_graphs(), expect):
        assert float(_closed_form_value(f, g, target)) == float(want)


@pytest.mark.parametrize("target,adjacency,kwargs", CASES)
def test_flipped_bit_yields_adjacent_pair(target, adjacency, kwargs):
    sigma = [1, 0, 1]
    pair = adjacent_pair(target, adjacency, sigma, 2, **kwargs)
    kind = (
        AdjacencyKind.EDGE_EVENT if adjacency == "edge" else AdjacencyKind.NODE_EVENT
    )
    assert pair.witness.kind is kind
    assert pair.witness.t_star == 2
    assert check_adjacency(pair.a, pair.b, kind) is not None


def test_generators_are_incremental():
    for target, adjacency, kwargs in CASES:
        seq = gen_event_level(target, adjacency, [1, 0, 1], **kwargs)
        assert seq.kind is SequenceKind.INCREMENTAL
        seq.validate()


def test_node_star_gadgets_fit_every_degree_bound():
    # a group holds D-1 stars of tau (or k) nodes each, plus v_t
    sigma = [1, 0, 1, 1]
    for D in range(4, 13):
        cases = [("high_degree", dict(tau=tau)) for tau in range(1, D)]
        cases.append(("kstar", dict(k=D - 1)))
        for target, kw in cases:
            seq = gen_event_level(target, "node", sigma, D=D, **kw)
            seq.validate()
            want = expected_values(target, "node", sigma, D=D)
            assert exact_values(seq, target_function(target, **kw)) == want, (D, kw)


def test_sigma_validation():
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("mst", "edge", [])
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("mst", "edge", [0, 2])
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("mst", "lattice", [1])
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("page_rank", "edge", [1])


def test_hypercube_horizon_guard():
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("min_cut", "edge", [1] * 15)


def test_node_counting_parameter_guards():
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("triangle", "node", [1], D=3)  # needs D > 3
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("kstar", "node", [1], D=5, k=2)  # needs k = D-1
    with pytest.raises(ParameterOutOfRange):
        gen_event_level("high_degree", "node", [1], D=5, tau=5)  # tau <= D-1


def test_expected_values_need_D_at_node_level():
    with pytest.raises(ParameterOutOfRange):
        expected_values("triangle", "node", [1, 0])


# ---- minimal transformations ----


def test_trans_is_minimal_and_reaches_target():
    g1 = Graph.from_edges([(0, 1, 2), (1, 2, 1)], extra_nodes=[3])
    g2 = Graph.from_edges([(0, 1, 5), (2, 3, 1)], extra_nodes=range(4))
    moves = trans(g1, g2)
    # one weight change (2 moves), one delete, one insert
    assert len(moves) == 4
    g = g1
    for u in moves:
        g = apply_update(g, u)
    assert g == g2


def test_trans_requires_same_node_set():
    with pytest.raises(NodeSetMismatch):
        trans(Graph({0, 1}), Graph({0, 1, 2}))


# ---- user-level phase construction ----


def _ell2_pair():
    g1 = Graph.from_edges([(0, 1), (2, 3)])
    g2 = Graph.from_edges([(0, 1), (1, 2)], extra_nodes=[3])
    return g1, g2


def test_user_level_phase_identities():
    g1, g2 = _ell2_pair()
    ell = len(trans(g1, g2))
    assert ell == 2
    for bits in ([1, 0], [0, 1], [1, 1, 0, 1]):
        seq = gen_user_level(g1, g2, (0, 1), bits)
        assert seq.T == 2 * ell * len(bits)
        H = [seq.initial] + seq.materialize()
        assert all(H[i] == g1 for i in range(0, len(H), 4 * ell))
        assert all(H[i] == g2 for i in range(2 * ell, len(H), 4 * ell))


def test_user_level_differing_bits_separate_by_the_value_gap():
    # two strings differing in one bit disagree mid-phase: one sequence
    # sits at g2 while the other still shows g1 (modulo the spared edge)
    g1, g2 = _ell2_pair()
    f = GraphFunction("high_degree", tau=2)
    s = abs(evaluate(f, g1) - evaluate(f, g2))
    assert s > 0
    a = gen_user_level(g1, g2, (0, 1), [0, 1]).materialize()
    b = gen_user_level(g1, g2, (0, 1), [1, 1]).materialize()
    gaps = [abs(evaluate(f, x) - evaluate(f, y)) for x, y in zip(a, b)]
    assert max(gaps) >= s


def test_user_level_guards():
    g1, g2 = _ell2_pair()
    with pytest.raises(SparedEdgeMissing):
        gen_user_level(g1, g2, (2, 3), [1])  # not in both graphs
    with pytest.raises(ParameterOutOfRange):
        gen_user_level(g1, g1, (0, 1), [1])  # no difference
    # odd transformation length is rejected
    g3 = Graph.from_edges([(0, 1), (2, 3), (1, 2)])
    with pytest.raises(ParameterOutOfRange):
        gen_user_level(g1, g3, (0, 1), [1])
    heavy = Graph.from_edges([(0, 1, 5), (2, 3)])
    with pytest.raises(SparedEdgeMissing):
        gen_user_level(g1, heavy, (0, 1), [1])  # spared edge changes weight


def test_spread_families():
    for name, n, W in [
        ("mst_weight", 5, 3),
        ("min_cut", 5, 2),
        ("min_cut", 6, 2),
        ("max_weight_matching", 6, 3),
        ("max_cardinality_matching", 7, 1),
    ]:
        spec = spread_of(GraphFunction(name), n, W=W)
        assert spec.s > 0
        assert spec.ell % 2 == 0
        assert spec.spared_edge in spec.g1.edges
        assert spec.spared_edge in spec.g2.edges
        f = GraphFunction(name)
        assert abs(float(evaluate(f, spec.g1)) - float(evaluate(f, spec.g2))) == spec.s
        # the family must feed the phase construction directly
        seq = gen_user_level(spec.g1, spec.g2, spec.spared_edge, [1, 0])
        assert seq.T == 4 * spec.ell


def test_spread_requires_enough_nodes():
    with pytest.raises(TooSmall):
        spread_of(GraphFunction("mst_weight"), 3)


# ---- sensitivity fixtures ----


def test_mst_tightness_pair_is_adjacent_and_tight():
    for W in (1, 2, 3, 5):
        a, b = mst_tightness_pair(W)
        assert check_adjacency(a, b, AdjacencyKind.EDGE_EVENT) is not None
        from continualdp import diff_sensitivity

        assert diff_sensitivity(GraphFunction("mst_weight"), a, b) == 2 * W
    with pytest.raises(ParameterOutOfRange):
        mst_tightness_pair(0)


def test_unbounded_pairs_are_valid_and_adjacent():
    cells = [
        (GraphFunction("high_degree", tau=3), "edge"),
        (GraphFunction("degree_histogram"), "node"),
        (GraphFunction("triangle_count"), "edge"),
        (GraphFunction("kstar_count", k=2), "node"),
        (GraphFunction("edge_count"), "node"),
        (GraphFunction("mst_weight"), "edge"),
        (GraphFunction("min_cut"), "node"),
        (GraphFunction("max_weight_matching"), "edge"),
        (GraphFunction("max_cardinality_matching"), "node"),
    ]
    for f, adjacency in cells:
        a, b = unbounded_pair(f, adjacency, 4, W=3)
        a.validate()
        b.validate()
        kind = (
            AdjacencyKind.NODE_EVENT
            if adjacency == "node"
            else AdjacencyKind.EDGE_EVENT
        )
        assert check_adjacency(a, b, kind) is not None, f.label()


def test_unbounded_pair_guards():
    with pytest.raises(ParameterOutOfRange):
        unbounded_pair(GraphFunction("edge_count"), "edge", 4)  # bounded cell
    with pytest.raises(ParameterOutOfRange):
        unbounded_pair(GraphFunction("mst_weight"), "edge", 4, W=2)  # needs W >= 3
    with pytest.raises(ParameterOutOfRange):
        unbounded_pair(GraphFunction("densest_subgraph"), "edge", 4)
