import pytest

from continualdp import (
    Graph,
    GraphFunction,
    GraphSequence,
    OracleScope,
    RandomSource,
    SequenceKind,
    Update,
    brute_sensitivity,
    check_adjacency,
    compare_with_table,
    diff_sensitivity,
    gen_event_level,
    mst_tightness_pair,
    parse_sequence,
    sensitivity_bound,
)
from continualdp.errors import BudgetExceeded, OutOfRange, UnknownCombination
from continualdp import oracle as oracle_mod

from conftest import max_degree


def test_diff_sensitivity_by_hand():
    # a inserts one extra edge at t=2, so exactly one difference entry
    # of the difference sequences moves by 1
    init = Graph(range(3))
    a = GraphSequence(init, [Update(e_ins={(0, 1): 1}), Update(e_ins={(1, 2): 1})])
    b = GraphSequence(init, [Update(e_ins={(0, 1): 1}), Update()])
    f = GraphFunction("edge_count")
    assert diff_sensitivity(f, a, b) == 1.0


def test_diff_sensitivity_histogram_uses_all_bins():
    init = Graph(range(2))
    a = GraphSequence(init, [Update(e_ins={(0, 1): 1})])
    b = GraphSequence(init, [Update()])
    f = GraphFunction("degree_histogram")
    # histogram moves (2,0) -> (0,2): bin 0 changes by 2 and bin 1 by 2
    assert diff_sensitivity(f, a, b) == 4.0


def test_diff_sensitivity_rejects_length_mismatch():
    init = Graph(range(2))
    a = GraphSequence(init, [Update()])
    b = GraphSequence(init, [Update(), Update()])
    with pytest.raises(OutOfRange):
        diff_sensitivity(GraphFunction("edge_count"), a, b)


def test_scope_validation():
    with pytest.raises(OutOfRange):
        OracleScope(n_max=1)
    with pytest.raises(OutOfRange):
        OracleScope(T_max=0)
    with pytest.raises(BudgetExceeded):
        OracleScope(max_pairs=0)
    with pytest.raises(UnknownCombination):
        OracleScope(regime="partially-dynamic")


def test_brute_sensitivity_is_deterministic():
    f = GraphFunction("edge_count")
    scope = OracleScope(n_max=4, T_max=3, max_pairs=40, seed=7)
    r1 = brute_sensitivity(f, scope)
    r2 = brute_sensitivity(f, scope)
    assert r1.value == r2.value == 1.0  # incremental edge level attains 1
    assert r1.sampled and r1.pairs_tested >= 1
    assert r1.pair is not None
    assert diff_sensitivity(f, *r1.pair) == r1.value


def test_edge_count_cell_is_tight():
    verdict = compare_with_table(
        GraphFunction("edge_count"),
        OracleScope(n_max=4, T_max=3, max_pairs=60, seed=3),
    )
    assert verdict.status == "Tight"
    assert verdict.oracle_value == verdict.formula_at_max == 1.0


def test_mst_edge_cell_is_tight_via_fixture():
    verdict = compare_with_table(
        GraphFunction("mst_weight"),
        OracleScope(n_max=5, T_max=3, W_max=3, max_pairs=60, seed=3),
    )
    assert verdict.status == "Tight"
    a, b = mst_tightness_pair(3)
    assert verdict.oracle_value >= diff_sensitivity(GraphFunction("mst_weight"), a, b)


def test_fully_dynamic_edge_count_is_sound_not_tight():
    # a single update touches an edge once, so the oracle attains 1
    # while the two-sided formula allows 2
    verdict = compare_with_table(
        GraphFunction("edge_count"),
        OracleScope(n_max=4, T_max=3, regime="fully-dynamic", max_pairs=80, seed=5),
    )
    assert verdict.status == "Sound"
    assert verdict.oracle_value == 1.0


def test_halved_formula_is_flagged_as_violation(monkeypatch):
    real = oracle_mod.sensitivity_bound

    def halved(f, adjacency, regime, D=None, W=None):
        return real(f, adjacency, regime, D=D, W=W) / 2

    monkeypatch.setattr(oracle_mod, "sensitivity_bound", halved)
    verdict = compare_with_table(
        GraphFunction("edge_count"),
        OracleScope(n_max=4, T_max=3, max_pairs=40, seed=3),
    )
    assert verdict.status == "Violation"
    assert verdict.details["worst_ratio"] > 1.0


def test_forest_pairs_count_in_the_mst_domain():
    # A's weight-3 edge joins two trees, then leaves the cycle (0, 2)
    # closes: L1 = 6 = 2W, and no connectivity filter drops such a pair
    init = Graph(range(3))
    rest = [Update(e_ins={(1, 2): 1}), Update(e_ins={(0, 2): 1})]
    a = GraphSequence(init, [Update(e_ins={(0, 1): 3}), *rest])
    b = GraphSequence(init, [Update(), *rest])
    f = GraphFunction("mst_weight")
    assert diff_sensitivity(f, a, b) == 6.0 == sensitivity_bound(f, "edge", "incremental", W=3)
    assert (a, b) == mst_tightness_pair(3)
    scope = OracleScope(n_max=3, T_max=3, W_max=3, max_pairs=1)
    assert (a, b) in list(oracle_mod._pairs(f, scope))
    # a bridge between two components, swapped out by a later unit edge
    init = Graph(range(4), {(0, 1): 1, (2, 3): 1})
    close = Update(e_ins={(0, 3): 1})
    a = GraphSequence(init, [Update(e_ins={(1, 2): 2}), close])
    b = GraphSequence(init, [Update(), close])
    assert diff_sensitivity(f, a, b) == 4.0 == sensitivity_bound(f, "edge", "incremental", W=2)


@pytest.mark.parametrize("regime", ["incremental", "decremental"])
def test_mst_edge_cells_are_tight_at_2w(regime):
    # the embedded fixtures are incremental pairs and attain 2W; a decremental
    # pair moves the difference sequence by at most 2W - 1, so that cell is Sound
    verdict = compare_with_table(
        GraphFunction("mst_weight"),
        OracleScope(n_max=4, T_max=4, W_max=3, regime=regime, max_pairs=200, seed=7),
    )
    assert verdict.formula_at_max == 6.0
    if regime == "incremental":
        assert verdict.status == "Tight"
        assert verdict.oracle_value == 6.0
    else:
        assert verdict.status == "Sound"
        assert verdict.oracle_value <= 5.0


@pytest.mark.parametrize("regime", ["incremental", "decremental"])
def test_mst_node_cells_are_sound(regime):
    verdict = compare_with_table(
        GraphFunction("mst_weight"),
        OracleScope(n_max=5, T_max=4, W_max=3, D_max=4, adjacency="node", regime=regime,
                    max_pairs=200, seed=3),
    )
    assert verdict.status != "Violation"


def test_diff_sensitivity_pads_histograms_to_a_common_width():
    # b's star gives node 0 degree 2, a bin a's histograms never reach
    init = Graph(range(3))
    a = GraphSequence(init, [Update(e_ins={(0, 1): 1})])
    b = GraphSequence(init, [Update(e_ins={(0, 1): 1, (0, 2): 1})])
    # (1, 2) against (0, 2, 1): bins 0, 1 and 2 move by 1, 0 and 1
    assert diff_sensitivity(GraphFunction("degree_histogram"), a, b) == 2.0


def test_node_level_counting_cells_are_sound():
    scope = OracleScope(
        n_max=5, T_max=3, D_max=4, adjacency="node", max_pairs=60, seed=11
    )
    for f in (GraphFunction("edge_count"), GraphFunction("triangle_count")):
        verdict = compare_with_table(f, scope)
        assert verdict.status in ("Sound", "Tight")


def test_generator_pairs_respect_the_table():
    # generator-built adjacent pairs must never exceed the formula
    f = GraphFunction("edge_count")
    seq = gen_event_level("edge_count", "edge", [1, 0, 1])
    verdict = compare_with_table(
        f, OracleScope(n_max=6, T_max=4, max_pairs=30, seed=2)
    )
    assert verdict.status != "Violation"
    assert seq.T == 3


def test_a_broken_fixture_generator_is_not_swallowed(monkeypatch):
    # only a parameter the gadget cannot take leaves a cell without its fixture
    def broken(*args, **kwargs):
        raise RuntimeError("broken generator")

    monkeypatch.setattr(oracle_mod, "adjacent_pair", broken)
    with pytest.raises(RuntimeError, match="broken generator"):
        compare_with_table(
            GraphFunction("edge_count"), OracleScope(n_max=4, T_max=3, max_pairs=10, seed=3),
        )


def test_a_terminal_missing_only_mid_sequence_fails_the_terminal_check():
    # node 1 is deleted at t=1 and inserted again at t=2, so only G_1
    # lacks it; G_0 and G_T both hold it
    init = Graph(range(3))
    gone = GraphSequence(init, [Update(v_del={1}), Update(v_ins={1})])
    kept = GraphSequence(init, [Update(), Update()])
    f = GraphFunction("st_min_cut", s=0, t=1)
    assert not oracle_mod._has_terminals(f, (kept, gone))
    assert oracle_mod._has_terminals(f, (kept, kept))
    assert oracle_mod._has_terminals(GraphFunction("edge_count"), (gone, gone))


@pytest.mark.parametrize("adjacency, kind", [("edge", "edge-event"), ("node", "node-event")])
def test_the_decremental_pairs_are_adjacent_at_their_first_step(adjacency, kind):
    a, b = (parse_sequence(text) for text in oracle_mod._DECREMENTAL_PAIRS[adjacency])
    assert a.kind is b.kind is SequenceKind.DECREMENTAL
    assert check_adjacency(a, b, kind).t_star == 1


@pytest.mark.parametrize("f, adjacency", [
    (GraphFunction("triangle_count"), "edge"),
    (GraphFunction("kstar_count", k=2), "edge"),
    (GraphFunction("triangle_count"), "node"),
], ids=["triangle-edge", "kstar2-edge", "triangle-node"])
def test_decremental_pair_within_the_partially_dynamic_gamma(f, adjacency):
    # against the cell release uses for these logs: L1 4, 6 and 6 against
    # Gamma 6, 8 and 6 at D = 3
    a, b = (parse_sequence(text) for text in oracle_mod._DECREMENTAL_PAIRS[adjacency])
    assert diff_sensitivity(f, a, b) <= sensitivity_bound(f, adjacency, a.kind.value, D=3)


@pytest.mark.parametrize("regime", ["incremental", "decremental", "fully-dynamic"])
@pytest.mark.parametrize("adjacency", ["edge", "node"])
def test_every_draw_is_an_adjacent_pair_of_the_scope(adjacency, regime):
    # one sampler for every cell: each pair validates, lies in the scope's
    # regime and bounds and is adjacent, and the differing step takes every value
    scope = OracleScope(n_max=5, T_max=4, W_max=3, D_max=3, adjacency=adjacency, regime=regime)
    kind = "node-event" if adjacency == "node" else "edge-event"
    rng = RandomSource(2200)
    pairs, steps = 0, set()
    for _ in range(300):
        pair = oracle_mod._draw_pair(scope, rng)
        if pair is None:
            continue
        pairs += 1
        for seq in pair:
            seq.validate()
            assert seq.kind.value == regime
            assert seq.T <= 4 and max_degree(seq) <= 3 and seq.max_weight() <= 3
        steps.add(check_adjacency(*pair, kind).t_star)
    assert pairs >= 100
    assert steps == {1, 2, 3, 4}


def test_the_sampler_alone_finds_the_decremental_double_count(monkeypatch):
    # the draws alone, without fixtures, find the double count of a decremental
    # pair: 2-star L1 up to twice the incremental cell
    real = oracle_mod.sensitivity_bound

    def incremental_cell(f, adjacency, regime, D=None, W=None):
        return real(f, adjacency, "incremental", D=D, W=W)

    monkeypatch.setattr(oracle_mod, "_embedded_fixtures", lambda f, scope: [])
    monkeypatch.setattr(oracle_mod, "sensitivity_bound", incremental_cell)
    verdict = compare_with_table(
        GraphFunction("kstar_count", k=2),
        OracleScope(n_max=5, T_max=4, W_max=3, D_max=4, regime="decremental",
                    max_pairs=120, seed=20260824),
    )
    assert verdict.status == "Violation"
    assert verdict.oracle_value > verdict.formula_at_max
