import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from continualdp import (
    UNBOUNDED,
    AdjacencyKind,
    BinaryMechanism,
    Graph,
    GraphFunction,
    GraphSequence,
    RandomSource,
    SequenceKind,
    Update,
    check_adjacency,
    diff_sensitivity,
    evaluate,
    gen_event_level,
    parse_sequence,
    release,
    sensitivity_bound,
    theoretical_release_error,
)
from continualdp.errors import (
    BadDelta,
    ContinualDPError,
    DegreeViolation,
    NonPositiveScale,
    OutOfRange,
    UnboundedSensitivity,
    UnknownCombination,
    WeightViolation,
)
from continualdp.graphs import DynamicGraph
from continualdp.release import ReleaseRecord, exact_values

from conftest import max_degree, random_sequence

PD = "partially-dynamic"
FD = "fully-dynamic"


def test_edge_adjacent_table():
    assert sensitivity_bound(GraphFunction("edge_count"), "edge", PD) == 1
    assert sensitivity_bound(GraphFunction("high_degree", tau=2), "edge", PD) == 4
    assert sensitivity_bound(GraphFunction("degree_histogram"), "edge", PD, D=5) == 40
    assert sensitivity_bound(GraphFunction("triangle_count"), "edge", PD, D=5) == 5
    # 2 * (C(4,2) - C(3,2)) = 6
    assert sensitivity_bound(GraphFunction("kstar_count", k=2), "edge", PD, D=4) == 6
    assert sensitivity_bound(GraphFunction("mst_weight"), "edge", PD, W=10) == 20


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
    for name in ("min_cut", "st_min_cut", "max_weight_matching", "max_cardinality_matching",
                 "densest_subgraph"):
        f = GraphFunction(name, s=0, t=1)
        for adjacency in ("edge", "node"):
            for regime in ("incremental", "decremental", FD):
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


def test_zero_noise_release_reconstructs_exactly(zero_noise):
    rng = RandomSource(31)
    for i in range(40):
        seq = random_sequence(rng.child(i), kind="incremental")
        for f, _kw in _functions():
            # +2 keeps Gamma positive: k-stars with D < k give 0
            D = max_degree(seq) + 2
            report = release(
                seq, f, 1.0, 0.05, rng.child(f"{i}:{f.name}"),
                D=D, W=seq.max_weight(),
            )
            for rec, g in zip(report.records, seq.iter_graphs()):
                assert rec.abs_error == 0
                truth = evaluate(f, g)
                if isinstance(truth, tuple):
                    padded = truth + (0,) * (D + 1 - len(truth))
                    assert rec.released == tuple(float(v) for v in padded)
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


def test_histogram_release_runs_one_mechanism_per_bin(zero_noise):
    seq = gen_event_level("degree_histogram", "edge", [1, 0, 1])
    f = GraphFunction("degree_histogram")
    D = max_degree(seq) + 3
    report = release(seq, f, 1.0, 0.05, RandomSource(2), D=D)
    for rec in report.records:
        assert len(rec.released) == len(rec.true) == D + 1
        assert rec.abs_error == 0


def test_degree_checked_release_makes_one_pass(monkeypatch):
    seq = gen_event_level("triangle", "edge", [1, 1, 1])
    f = GraphFunction("triangle_count")
    calls, apply = [], DynamicGraph.apply
    monkeypatch.setattr(DynamicGraph, "apply", lambda g, u: calls.append(1) or apply(g, u))
    with pytest.raises(DegreeViolation, match="max degree 2 exceeds declared D=1"):
        release(seq, f, 1.0, 0.05, RandomSource(1), D=1)
    assert len(calls) == seq.T
    calls.clear()
    release(seq, f, 1.0, 0.05, RandomSource(1), D=2)
    assert len(calls) == seq.T


@pytest.mark.parametrize("bad, error, match", [
    (dict(delta=math.nan), BadDelta, "delta must be in"),
    (dict(delta=2.0), BadDelta, "delta must be in"),
    (dict(delta=0.0), BadDelta, "delta must be in"),
    (dict(epsilon=math.nan), NonPositiveScale, "epsilon must be positive and finite"),
    (dict(epsilon=math.inf), NonPositiveScale, "epsilon must be positive and finite"),
    (dict(epsilon=0.0), NonPositiveScale, "epsilon must be positive and finite"),
    (dict(epsilon=math.inf, delta=2.0), NonPositiveScale, "epsilon must be positive and finite"),
], ids=["delta=nan", "delta=2", "delta=0", "epsilon=nan", "epsilon=inf", "epsilon=0",
        "epsilon=inf,delta=2"])
def test_release_checks_parameters_before_evaluating(monkeypatch, bad, error, match):
    # a bad epsilon or delta is refused before any noise is drawn or the log replayed
    module = importlib.import_module("continualdp.release")
    counting = importlib.import_module("continualdp.counting")
    calls, draws = [], []
    evaluate, block = module.exact_values, counting.laplace_block
    monkeypatch.setattr(module, "exact_values", lambda *a: calls.append(a) or evaluate(*a))
    monkeypatch.setattr(counting, "laplace_block", lambda *a: draws.append(a) or block(*a))
    seq = gen_event_level("triangle", "edge", [1, 1, 1])

    def run(epsilon=1.0, delta=0.05):
        return release(seq, GraphFunction("triangle_count"), epsilon, delta,
                       RandomSource(0), D=2)

    with pytest.raises(error, match=match):
        run(**bad)
    assert calls == [] and draws == []
    run()  # the spies see the one evaluation and one noise block of a valid release
    assert len(calls) == len(draws) == 1


def _invalidated(seq: GraphSequence, rng: RandomSource, mode: str) -> GraphSequence:
    """``seq`` with one update made invalid: it deletes an edge no graph
    has, or inserts again an edge that the graph before it has and that
    it does not delete."""
    updates = list(seq.updates)
    graphs = [seq.initial, *seq.materialize()]
    if mode == "absent":
        cands = [(t, (100, 101)) for t in range(seq.T)]
    else:
        cands = [(t, k) for t, u in enumerate(updates) for k in graphs[t].edges
                 if k not in u.e_del]
    if not cands:
        return seq
    t, k = cands[rng.integers(0, len(cands))]
    u = updates[t]
    e_ins, e_del = dict(u.e_ins), set(u.e_del)
    if mode == "absent":
        e_del.add(k)
    else:
        e_ins[k] = 1
    updates[t] = Update(v_ins=u.v_ins, v_del=u.v_del, e_ins=e_ins, e_del=e_del)
    return GraphSequence(seq.initial, updates)


def _outcome(run):
    try:
        return run().est.tolist()
    except ContinualDPError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(("incremental", "decremental", "fully-dynamic")),
    st.sampled_from(("valid", "absent", "duplicate")),
    st.sampled_from([GraphFunction("edge_count"), GraphFunction("triangle_count"),
                     GraphFunction("kstar_count", k=2), GraphFunction("degree_histogram")]),
    st.sampled_from(("edge", "node")),
    st.data(),
)
def test_one_pass_release_matches_the_eager_checks(seed, kind, mode, f, adjacency, data):
    valid = random_sequence(RandomSource(seed), n_max=7, T_max=12, kind=kind)
    D = data.draw(st.integers(1, max_degree(valid) + 1), label="D")
    seq = valid if mode == "valid" else _invalidated(valid, RandomSource(seed).child(mode), mode)
    fully_dynamic = seq.kind is SequenceKind.FULLY_DYNAMIC
    if fully_dynamic:  # the one finite fully dynamic cell
        f, adjacency = GraphFunction("edge_count"), "edge"
    regime = FD if fully_dynamic else PD
    # only a configuration that every check before the replay accepts
    assume(0 < sensitivity_bound(f, adjacency, regime, D=D) < math.inf)

    def one_pass():
        return release(seq, f, 1.0, 0.05, RandomSource(seed), adjacency=adjacency, D=D)

    def eager():
        seq.validate()
        if (top := max_degree(seq)) > D:
            raise DegreeViolation(f"sequence max degree {top} exceeds declared D={D}")
        return one_pass()

    assert _outcome(one_pass) == _outcome(eager)


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
        D = max(max_degree(seq), 1)
        report = release(seq, f, 0.8, 0.05, RandomSource(50 + i), adjacency=adjacency, D=D)
        assert len(built) == i + 1
        gamma = sensitivity_bound(f, adjacency, PD, D=D)
        n = D + 1
        per_bin = [
            BinaryMechanism(seq.T, 0.8, RandomSource(50 + i).child(f"coord{b}"),
                            item_width=gamma)
            for b in range(n)
        ]
        prev = [0.0] * n
        for rec, g in zip(report.records, seq.iter_graphs()):
            truth = evaluate(f, g)
            truth += (0,) * (n - len(truth))
            vec = [float(v) for v in truth]
            est = [m.feed(v - p)[1] for m, v, p in zip(per_bin, vec, prev)]
            prev = vec
            assert rec.true == truth
            assert rec.released == tuple(est)
            assert all(type(v) is float for v in rec.released)
            assert rec.abs_error == max(abs(e - v) for e, v in zip(est, vec))


def test_histogram_release_without_nodes_is_empty(zero_noise):
    # an empty histogram still has the D + 1 bins 0..D, all zero
    seq = GraphSequence(Graph.from_edges([]), [Update(), Update()])
    report = release(seq, GraphFunction("degree_histogram"), 1.0, 0.05, RandomSource(1), D=1)
    records = [(rec.true, rec.released, rec.abs_error) for rec in report.records]
    assert records == [((0, 0), (0.0, 0.0), 0.0)] * 2


def test_node_adjacent_histograms_release_the_same_width():
    # the partner adds node 3 with edge (2, 3) at t=2; both release bins 0..D
    a = parse_sequence("t=0 +v:0,1,2\nt=1 +e:0-1:1\nt=2 +e:1-2:1\n")
    b = parse_sequence("t=0 +v:0,1,2\nt=1 +e:0-1:1\nt=2 +v:3 +e:1-2:1,2-3:1\n")
    assert check_adjacency(a, b, AdjacencyKind.NODE_EVENT) is not None
    f = GraphFunction("degree_histogram")
    for seq in (a, b):
        report = release(seq, f, 1.0, 0.05, RandomSource(1), adjacency="node", D=3)
        assert report.gamma == 43
        assert all(len(rec.released) == len(rec.true) == 4 for rec in report.records)
    assert [rec.true for rec in report.records] == [(1, 2, 0, 0), (0, 2, 2, 0)]


def test_mst_gamma_covers_a_forest_pair():
    # a weight-W edge joins two trees, then leaves the cycle (0, 2) closes
    init = Graph(range(3))
    rest = [Update(e_ins={(1, 2): 1}), Update(e_ins={(0, 2): 1})]
    a = GraphSequence(init, [Update(e_ins={(0, 1): 3}), *rest])
    b = GraphSequence(init, [Update(), *rest])
    f = GraphFunction("mst_weight")
    report = release(a, f, 1.0, 0.05, RandomSource(1), W=3)
    assert diff_sensitivity(f, a, b) == report.gamma == 6.0


def test_histogram_error_is_max_over_bins():
    seq = gen_event_level("degree_histogram", "edge", [1, 1])
    f = GraphFunction("degree_histogram")
    report = release(seq, f, 1.0, 0.05, RandomSource(9), D=max_degree(seq))
    for rec in report.records:
        diffs = [abs(r - float(t)) for r, t in zip(rec.released, rec.true)]
        assert rec.abs_error == pytest.approx(max(diffs))


def test_theoretical_release_error_grows_with_horizon():
    b = [theoretical_release_error(1.0, 1.0, 0.05, T) for T in (8, 64, 4096)]
    assert b[0] < b[1] < b[2]
    # polylog shape: quadrupling log T should not square the bound
    assert b[2] / b[0] < (math.log2(4096) / math.log2(8)) ** 2


def _eager_records(seq, f, est, bound, D):
    """The records as release built them before it kept columns: from the
    exact values, the released values and the bound, step by step."""
    values = exact_values(seq, f)
    if f.name == "degree_histogram":
        exact = np.zeros((seq.T, D + 1))
        for row, value in zip(exact, values):
            row[:len(value)] = value
        errors = np.max(np.abs(est - exact), axis=1).tolist()
        rows = zip(exact.astype(int).tolist(), est.tolist(), errors)
        return [ReleaseRecord(t, tuple(value), tuple(e), err, bound)
                for t, (value, e, err) in enumerate(rows, start=1)]
    rows = zip(np.array(values, float).tolist(), est.tolist())
    return [ReleaseRecord(t, v, e, abs(e - v), bound) for t, (v, e) in enumerate(rows, start=1)]


_RECORD_FUNCTIONS = [
    GraphFunction("edge_count"),
    GraphFunction("high_degree", tau=2),
    GraphFunction("triangle_count"),
    GraphFunction("kstar_count", k=2),
    GraphFunction("mst_weight"),
    GraphFunction("degree_histogram"),
]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(("incremental", "decremental", "fully-dynamic")),
    st.sampled_from(_RECORD_FUNCTIONS),
    st.sampled_from(("edge", "node")),
)
def test_records_from_columns_match_the_eager_records(seed, kind, f, adjacency):
    seq = random_sequence(RandomSource(seed), n_max=7, T_max=14, kind=kind)
    if kind == "fully-dynamic":  # the one finite fully dynamic cell
        f, adjacency = GraphFunction("edge_count"), "edge"
    D = max(max_degree(seq), 2)  # D = 1 gives some cells Gamma = 0
    report = release(seq, f, 0.7, 0.05, RandomSource(seed).child("noise"),
                     adjacency=adjacency, D=D, W=seq.max_weight())
    want = _eager_records(seq, f, report.est, report.bound, D)
    # repr tells 1 from 1.0 and -0.0 from 0.0, so this pins value and type
    assert list(map(repr, report.records)) == list(map(repr, want))
    assert report.records is report.records
    assert report.max_abs_error == max(rec.abs_error for rec in want)
    assert len(report.records) == seq.T and report.records[-1].t == seq.T
