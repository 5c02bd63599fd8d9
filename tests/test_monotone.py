import math

import pytest

from continualdp import (
    Graph,
    GraphFunction,
    GraphSequence,
    RandomSource,
    SparseVector,
    SvtAnswer,
    additive_error,
    gen_event_level,
    monotone_release,
    monotone_run,
    reversed_sequence,
    threshold_budget,
    Update,
)
from continualdp import monotone
from continualdp.errors import (
    BadDelta,
    NonMonotoneInput,
    OutOfRange,
    ParameterOutOfRange,
    UnboundedSensitivity,
    UnknownRange,
    WeightViolation,
)
from continualdp.monotone import MonotoneMechanism


def test_threshold_budget_values():
    assert threshold_budget(1.0, 16.0) == 4
    assert threshold_budget(1.0, 1.0) == 1
    # float-guarded exact power: log_{1.5}(1.5^5) must come out as 5
    assert threshold_budget(0.5, 1.5**5) == 5
    with pytest.raises(OutOfRange):
        threshold_budget(0.0, 4.0)
    for r in (0.5, math.nan, math.inf):
        with pytest.raises(OutOfRange):
            threshold_budget(0.5, r)


def test_additive_error_formula():
    eps, beta, delta, r, rho, T = 1.0, 0.5, 0.1, 64.0, 2.0, 128
    expected = 16 * (math.log(r) / math.log(1.5)) * rho * math.log(2 * T / delta) / eps
    assert additive_error(eps, beta, delta, r, rho, T) == pytest.approx(expected)


def test_svt_threshold_noise_drawn_once():
    rng = RandomSource(3)
    svt = SparseVector(1.0, 1.0, 3, rng)
    zeta = svt.zeta
    for _ in range(5):
        svt.query(0.0, 100.0)
    assert svt.zeta == zeta


def test_svt_zero_noise_boundary_is_top(zero_noise):
    svt = SparseVector(1.0, 1.0, 2, RandomSource(0))
    assert svt.query(5.0, 5.0) is SvtAnswer.TOP  # inclusive comparison
    assert svt.query(4.9, 5.0) is SvtAnswer.BOTTOM
    assert svt.query(6.0, 5.0) is SvtAnswer.TOP
    assert svt.query(100.0, 0.0) is SvtAnswer.ABORT  # budget c=2 spent


def test_svt_scales():
    svt = SparseVector(1.0, 3.0, 4, RandomSource(1))
    assert svt.epsilon1 == 0.5 and svt.epsilon2 == 0.5
    assert svt.nu_scale == pytest.approx(2 * 4 * 3.0 / 0.5)


def test_svt_validation():
    with pytest.raises(OutOfRange):
        SparseVector(0.0, 1.0, 1, RandomSource(0))
    with pytest.raises(OutOfRange):
        SparseVector(1.0, 1.0, 0, RandomSource(0))


def test_zero_noise_ladder_trace(zero_noise):
    report = monotone_run([1, 2, 3, 5], 1.0, 1.0, 0.1, 16.0, 1.0, RandomSource(0))
    assert [rec.output for rec in report.records] == [2.0, 4.0, 4.0, 8.0]
    assert report.all_bounds_hold


def test_zero_noise_constant_stream(zero_noise):
    report = monotone_run([1, 1, 1], 1.0, 1.0, 0.1, 8.0, 1.0, RandomSource(0))
    assert [rec.output for rec in report.records] == [2.0, 2.0, 2.0]
    assert report.top_count == 1


def test_values_below_one_stay_at_ladder_base(zero_noise):
    report = monotone_run([0, 0.5], 1.0, 1.0, 0.1, 8.0, 1.0, RandomSource(0))
    assert [rec.output for rec in report.records] == [1.0, 1.0]
    # no sandwich guarantee below the base, flagged as ok
    assert report.all_bounds_hold


def test_non_monotone_input_rejected():
    with pytest.raises(NonMonotoneInput):
        monotone_run([1, 3, 2], 1.0, 0.5, 0.1, 8.0, 1.0, RandomSource(0))


def test_budget_exhaustion_is_reported(zero_noise):
    # r declared far below the actual values: the ladder runs out
    report = monotone_run([1, 100], 1.0, 1.0, 0.1, 4.0, 1.0, RandomSource(0))
    assert report.budget_exhausted
    assert report.top_count == report.c


def test_mechanism_never_answers_more_than_c_tops():
    for seed in range(20):
        mech = MonotoneMechanism(1.0, 0.5, 32.0, 1.0, RandomSource(seed))
        for v in (1, 2, 4, 8, 16, 32):
            mech.process(v)
        assert mech.svt.count <= mech.c


def test_monotone_release_incremental_zero_noise(zero_noise):
    seq = gen_event_level("min_cut", "edge", [1, 1, 0, 1], W=2)
    report = monotone_release(
        seq, GraphFunction("min_cut"), 1.0, 1.0, 0.1, RandomSource(0), r=16.0, W=2,
    )
    assert [rec.true for rec in report.records] == [2.0, 4.0, 4.0, 6.0]
    for rec in report.records:
        assert rec.true <= rec.output <= 2 * rec.true
    assert report.rho == 2  # static sensitivity W


def test_monotone_release_decremental_reverses(zero_noise):
    fwd = gen_event_level("min_cut", "edge", [1, 1, 1], W=2)
    dec = reversed_sequence(fwd)
    report = monotone_release(
        dec, GraphFunction("min_cut"), 1.0, 1.0, 0.1, RandomSource(0), r=16.0, W=2,
    )
    assert [rec.t for rec in report.records] == [1, 2, 3]
    trues = [rec.true for rec in report.records]
    assert trues == sorted(trues, reverse=True)
    outputs = [rec.output for rec in report.records]
    assert outputs == sorted(outputs, reverse=True)


def test_monotone_release_rejects_fully_dynamic():
    g = Graph.from_edges([(0, 1, 2)])
    seq = GraphSequence(g, [Update(e_del={(0, 1)}), Update(e_ins={(0, 1): 1})])
    with pytest.raises(NonMonotoneInput):
        monotone_release(seq, GraphFunction("min_cut"), 1.0, 0.5, 0.1, RandomSource(0), r=8.0)


def test_monotone_release_rejects_local_functions():
    seq = gen_event_level("edge_count", "edge", [1, 1])
    with pytest.raises(UnknownRange):
        monotone_release(seq, GraphFunction("edge_count"), 1.0, 0.5, 0.1, RandomSource(0),
                         r=8.0)


def test_true_values_override_must_match_length():
    seq = gen_event_level("min_cut", "edge", [1, 0], W=2)
    with pytest.raises(OutOfRange):
        monotone_release(
            seq, GraphFunction("min_cut"), 1.0, 0.5, 0.1, RandomSource(0), r=8.0, W=2,
            true_values=[2.0],
        )


@pytest.mark.parametrize("name", ["min_cut", "max_weight_matching", "st_min_cut"])
def test_monotone_release_requires_declared_weight_bound(name):
    seq = gen_event_level("min_cut", "node", [1, 1], W=2)
    f = GraphFunction(name, s=0, t=1)
    with pytest.raises(OutOfRange, match="weight bound W"):
        monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(0), r=8.0)
    with pytest.raises(WeightViolation, match="max weight 2 exceeds declared W=1"):
        monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(0), r=8.0, W=1)


def test_monotone_release_refuses_values_too_large_for_a_float(monkeypatch):
    draws = []
    monkeypatch.setattr(monotone, "sample_laplace", lambda *a: draws.append(a) or 0.0)
    seq = gen_event_level("min_cut", "edge", [1, 1], W=2)
    f = GraphFunction("min_cut")
    with pytest.raises(ParameterOutOfRange, match="W is too large for a float"):
        monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(0), r=8.0, W=10**400)
    with pytest.raises(OutOfRange, match="additive error is too large for a float"):
        monotone_release(seq, f, 1e-320, 0.5, 0.1, RandomSource(0), r=8.0, W=2)
    assert draws == []


def test_monotone_release_requires_a_declared_range():
    seq = gen_event_level("min_cut", "edge", [1, 1], W=2)
    with pytest.raises(TypeError, match="'r'"):
        monotone_release(seq, GraphFunction("min_cut"), 1.0, 0.5, 0.1, RandomSource(0), W=2)


@pytest.mark.parametrize("bad, error, match", [
    (dict(r=math.nan), OutOfRange, "range r must be in"),
    (dict(epsilon=math.nan), OutOfRange, "epsilon must be positive and finite"),
    (dict(delta=2.0), BadDelta, "delta must be in"),
    (dict(beta=0.0), OutOfRange, "beta must be in"),
], ids=["r=nan", "epsilon=nan", "delta=2", "beta=0"])
def test_monotone_release_checks_parameters_before_evaluating(monkeypatch, bad, error, match):
    calls, evaluate = [], monotone.exact_values
    monkeypatch.setattr(monotone, "exact_values", lambda *a: calls.append(a) or evaluate(*a))
    seq = gen_event_level("min_cut", "edge", [1, 1], W=2)

    def run(epsilon=1.0, beta=0.5, delta=0.1, r=8.0):
        return monotone_release(seq, GraphFunction("min_cut"), epsilon, beta, delta,
                                RandomSource(0), r=r, W=2)

    with pytest.raises(error, match=match):
        run(**bad)
    assert calls == []
    run()  # the spy sees the one evaluation of a valid release
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["min_cut", "st_min_cut"])
@pytest.mark.parametrize("last_edges", [{(0, 4): 1, (1, 4): 1}, {(0, 4): 1}])
def test_cut_release_refuses_node_updates_before_evaluating(monkeypatch, name, last_edges):
    # at the second step the cut stays 2 with both edges and drops to 1
    # without (1, 4); the update types alone decide, so both are refused
    monkeypatch.setattr("continualdp.monotone.exact_values", lambda *a: pytest.fail("evaluated"))
    triangle = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
    seq = GraphSequence(triangle, [Update(), Update(v_ins={4}, e_ins=last_edges)])
    f = GraphFunction(name, s=0, t=1)
    with pytest.raises(NonMonotoneInput, match="requires a log without node updates"):
        monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(0), r=8.0, W=1)


def test_cut_release_refuses_node_deletions():
    g = Graph.from_edges([(0, 1), (1, 2)], extra_nodes=[3])
    seq = GraphSequence(g, [Update(v_del={3})])
    with pytest.raises(NonMonotoneInput, match="requires a log without node updates"):
        monotone_release(seq, GraphFunction("min_cut"), 1.0, 0.5, 0.1, RandomSource(0),
                         r=8.0, W=1)


def test_monotone_release_without_weight_when_calibration_ignores_it():
    seq = gen_event_level("min_cut", "node", [1, 1], W=2)
    for name in ("max_cardinality_matching", "densest_subgraph"):
        report = monotone_release(seq, GraphFunction(name), 1.0, 0.5, 0.1, RandomSource(0),
                                  r=8.0)
        assert (report.rho, report.r) == (1, 8.0)


def _k5_then_node_9():
    # node adjacency: the twin without node 9 has min cut 4, this one 1
    k5 = Graph.from_edges([(a, b) for a in range(5) for b in range(a + 1, 5)])
    return GraphSequence(k5, [Update(), Update(v_ins={9}, e_ins={(0, 9): 1})])


@pytest.mark.parametrize("name", ["min_cut", "max_cardinality_matching", "densest_subgraph"])
def test_monotone_release_refuses_node_adjacency(name):
    seq = _k5_then_node_9()
    with pytest.raises(UnboundedSensitivity, match="node-level"):
        monotone_release(seq, GraphFunction(name), 1.0, 0.5, 0.1, RandomSource(1),
                         r=8.0, W=1, adjacency="node")


def test_monotone_release_default_adjacency_is_edge():
    seq = _k5_then_node_9()
    f = GraphFunction("max_cardinality_matching")
    rep = monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(1), r=8.0, W=1)
    same = monotone_release(seq, f, 1.0, 0.5, 0.1, RandomSource(1), r=8.0, W=1,
                            adjacency="edge")
    assert [r.true for r in rep.records] == [r.true for r in same.records] == [2.0, 3.0]
