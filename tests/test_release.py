import importlib
import math

import pytest

from continualdp import (
    UNBOUNDED,
    BinaryMechanism,
    GraphFunction,
    GraphSequence,
    RandomSource,
    evaluate,
    gen_event_level,
    release,
    sensitivity_bound,
    theoretical_release_error,
)
from continualdp.errors import (
    DegreeViolation,
    OutOfRange,
    UnboundedSensitivity,
    UnknownCombination,
    WeightViolation,
)

from conftest import random_sequence

PD = "partially-dynamic"
FD = "fully-dynamic"


def test_edge_adjacent_table():
    assert sensitivity_bound(GraphFunction("edge_count"), "edge", PD) == 1
    assert sensitivity_bound(GraphFunction("high_degree", tau=2), "edge", PD) == 4
    assert sensitivity_bound(GraphFunction("degree_histogram"), "edge", PD, D=5) == 40
    assert sensitivity_bound(GraphFunction("triangle_count"), "edge", PD, D=5) == 5
    # 2 * (C(4,2) - C(3,2)) = 6
    assert sensitivity_bound(GraphFunction("kstar_count", k=2), "edge", PD, D=4) == 6
    assert sensitivity_bound(GraphFunction("mst_weight"), "edge", PD, W=10) == 18


def test_node_adjacent_table():
    assert sensitivity_bound(GraphFunction("edge_count"), "node", PD, D=6) == 6
    assert sensitivity_bound(GraphFunction("high_degree", tau=2), "node", PD, D=6) == 13
    # 4D^2 + 2D + 1 at D=3
    assert sensitivity_bound(GraphFunction("degree_histogram"), "node", PD, D=3) == 43
    assert sensitivity_bound(GraphFunction("triangle_count"), "node", PD, D=4) == 6
    # D*C(D-1, k-1) + C(D, k) at D=4, k=2
    assert sensitivity_bound(GraphFunction("kstar_count", k=2), "node", PD, D=4) == 18
    assert sensitivity_bound(GraphFunction("mst_weight"), "node", PD, D=3, W=4) == 24


def test_fully_dynamic_table():
    assert sensitivity_bound(GraphFunction("edge_count"), "edge", FD) == 2
    for name in ("high_degree", "degree_histogram", "triangle_count", "kstar_count",
                 "mst_weight"):
        f = GraphFunction(name, tau=2, k=2)
        assert sensitivity_bound(f, "edge", FD, D=3, W=3) == UNBOUNDED
        assert sensitivity_bound(f, "node", FD, D=3, W=3) == UNBOUNDED
    assert sensitivity_bound(GraphFunction("edge_count"), "node", FD, D=3) == UNBOUNDED


def test_monotone_functions_have_no_difference_bound():
    for name in ("min_cut", "max_weight_matching", "max_cardinality_matching",
                 "densest_subgraph"):
        f = GraphFunction(name)
        for adjacency in ("edge", "node"):
            for regime in (PD, FD):
                assert sensitivity_bound(f, adjacency, regime) == UNBOUNDED


def test_regime_aliases_and_validation():
    f = GraphFunction("edge_count")
    assert sensitivity_bound(f, "edge", "incremental") == 1
    assert sensitivity_bound(f, "edge", "decremental") == 1
    with pytest.raises(UnknownCombination):
        sensitivity_bound(f, "hyper", PD)
    with pytest.raises(UnknownCombination):
        sensitivity_bound(f, "edge", "static")
    with pytest.raises(OutOfRange):
        sensitivity_bound(GraphFunction("triangle_count"), "edge", PD)  # missing D
    with pytest.raises(OutOfRange):
        sensitivity_bound(GraphFunction("mst_weight"), "edge", PD)  # missing W


def _functions():
    return [
        (GraphFunction("edge_count"), {}),
        (GraphFunction("high_degree", tau=2), {}),
        (GraphFunction("degree_histogram"), {}),
        (GraphFunction("triangle_count"), {}),
        (GraphFunction("kstar_count", k=2), {}),
        (GraphFunction("mst_weight"), {}),
    ]


def test_zero_noise_release_reconstructs_exactly():
    rng = RandomSource(31)
    for i in range(40):
        seq = random_sequence(rng.child(i), kind="incremental")
        for f, _kw in _functions():
            # +2 and +1 keep Gamma positive: k-stars with D < k and MST with W = 1 give 0
            report = release(
                seq, f, 1.0, 0.05, rng.child(f"{i}:{f.name}"),
                D=seq.max_degree() + 2, W=seq.max_weight() + 1, noise_off=True,
            )
            n_bins = len(seq.node_universe()) if f.name == "degree_histogram" else None
            for rec, g in zip(report.records, seq.iter_graphs()):
                assert rec.abs_error == 0
                truth = evaluate(f, g, n_bins=n_bins)
                if isinstance(truth, tuple):
                    assert tuple(rec.released) == tuple(float(v) for v in truth)
                else:
                    assert rec.released == float(truth)


def test_release_uses_table_gamma_and_bound():
    seq = gen_event_level("edge_count", "edge", [1, 0, 1, 1])
    f = GraphFunction("edge_count")
    report = release(seq, f, 1.0, 0.05, RandomSource(1))
    assert report.gamma == 1.0
    expected = theoretical_release_error(1.0, 1.0, 0.05, seq.T)
    assert all(rec.bound == pytest.approx(expected) for rec in report.records)


def test_release_is_seed_reproducible():
    seq = gen_event_level("edge_count", "edge", [1, 1, 0, 1, 0, 1])
    f = GraphFunction("edge_count")
    r1 = release(seq, f, 1.0, 0.05, RandomSource(55))
    r2 = release(seq, f, 1.0, 0.05, RandomSource(55))
    assert [rec.released for rec in r1.records] == [rec.released for rec in r2.records]


def test_unbounded_combination_is_rejected():
    seq = gen_event_level("min_cut", "node", [1, 0], W=2)
    with pytest.raises(UnboundedSensitivity):
        release(seq, GraphFunction("min_cut"), 1.0, 0.05, RandomSource(1))


def test_fully_dynamic_mst_is_rejected():
    from continualdp import Graph, GraphSequence, Update

    g = Graph.from_edges([(0, 1, 2)])
    seq = GraphSequence(g, [Update(e_del={(0, 1)}), Update(e_ins={(0, 1): 3})])
    with pytest.raises(UnboundedSensitivity):
        release(seq, GraphFunction("mst_weight"), 1.0, 0.05, RandomSource(1), W=3)


def test_declared_contract_bounds_are_validated():
    seq = gen_event_level("triangle", "edge", [1, 1, 1])  # degree reaches 2
    f = GraphFunction("triangle_count")
    with pytest.raises(DegreeViolation):
        release(seq, f, 1.0, 0.05, RandomSource(1), D=1)
    seq_w = gen_event_level("mst", "edge", [1], W=5)
    with pytest.raises(WeightViolation):
        release(seq_w, GraphFunction("mst_weight"), 1.0, 0.05, RandomSource(1), W=2)


def test_histogram_release_runs_one_mechanism_per_bin():
    seq = gen_event_level("degree_histogram", "edge", [1, 0, 1])
    f = GraphFunction("degree_histogram")
    report = release(
        seq, f, 1.0, 0.05, RandomSource(2), D=seq.max_degree(), noise_off=True
    )
    n = len(seq.node_universe())
    for rec in report.records:
        assert len(rec.released) == n
        assert rec.abs_error == 0


def test_degree_violation_makes_one_max_degree_pass(monkeypatch):
    calls = []
    max_degree = GraphSequence.max_degree
    monkeypatch.setattr(
        GraphSequence, "max_degree", lambda self: calls.append(1) or max_degree(self)
    )
    seq = gen_event_level("triangle", "edge", [1, 1, 1])
    with pytest.raises(DegreeViolation, match="max degree 2 exceeds declared D=1"):
        release(seq, GraphFunction("triangle_count"), 1.0, 0.05, RandomSource(1), D=1)
    assert len(calls) == 1


@pytest.mark.parametrize("adjacency", ["edge", "node"])
def test_histogram_release_equals_per_bin_mechanisms(monkeypatch, adjacency):
    built = []

    class Counted(BinaryMechanism):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    # the package attribute continualdp.release is the function
    monkeypatch.setattr(importlib.import_module("continualdp.release"), "BinaryMechanism", Counted)
    f = GraphFunction("degree_histogram")
    for i in range(5):
        seq = random_sequence(RandomSource(i), kind="incremental", T_max=40)
        D = max(seq.max_degree(), 1)
        report = release(seq, f, 0.8, 0.05, RandomSource(50 + i), adjacency=adjacency, D=D)
        assert len(built) == i + 1
        gamma = sensitivity_bound(f, adjacency, PD, D=D)
        n = len(seq.node_universe())
        per_bin = [
            BinaryMechanism(seq.T, 0.8, RandomSource(50 + i).child(f"coord{b}"),
                            item_width=gamma)
            for b in range(n)
        ]
        prev = [0.0] * n
        for rec, g in zip(report.records, seq.iter_graphs()):
            truth = evaluate(f, g, n_bins=n)
            vec = [float(v) for v in truth]
            est = [m.feed(v - p)[1] for m, v, p in zip(per_bin, vec, prev)]
            prev = vec
            assert rec.true == truth
            assert rec.released == tuple(est)
            assert all(type(v) is float for v in rec.released)
            assert rec.abs_error == max(abs(e - v) for e, v in zip(est, vec))


def test_histogram_release_without_nodes_is_empty():
    from continualdp import Graph, Update

    seq = GraphSequence(Graph.from_edges([]), [Update(), Update()])
    report = release(seq, GraphFunction("degree_histogram"), 1.0, 0.05, RandomSource(1), D=1)
    records = [(rec.true, rec.released, rec.abs_error) for rec in report.records]
    assert records == [((), (), 0.0)] * 2


def test_histogram_error_is_max_over_bins():
    seq = gen_event_level("degree_histogram", "edge", [1, 1])
    f = GraphFunction("degree_histogram")
    report = release(seq, f, 1.0, 0.05, RandomSource(9), D=seq.max_degree())
    for rec in report.records:
        diffs = [abs(r - float(t)) for r, t in zip(rec.released, rec.true)]
        assert rec.abs_error == pytest.approx(max(diffs))


def test_theoretical_release_error_grows_with_horizon():
    b = [theoretical_release_error(1.0, 1.0, 0.05, T) for T in (8, 64, 4096)]
    assert b[0] < b[1] < b[2]
    # polylog shape: quadrupling log T should not square the bound
    assert b[2] / b[0] < (math.log2(4096) / math.log2(8)) ** 2
