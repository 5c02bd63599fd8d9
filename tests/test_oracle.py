import pytest

from continualdp import (
    Graph,
    GraphFunction,
    GraphSequence,
    OracleScope,
    Update,
    brute_sensitivity,
    compare_with_table,
    diff_sensitivity,
    gen_event_level,
    mst_tightness_pair,
    sensitivity_bound,
)
from continualdp.errors import BudgetExceeded, OutOfRange
from continualdp import oracle as oracle_mod


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
