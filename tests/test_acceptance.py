"""End-to-end acceptance checks, one test per acceptance criterion.

Each test prints a single PASS line on success; a failed assertion is
the FAIL line.  Seeds are fixed so every run checks the same instances.
"""

import math
import statistics

import numpy as np
import pytest

from continualdp import (
    BinaryMechanism,
    GraphFunction,
    OracleScope,
    RandomSource,
    SparseVector,
    SvtAnswer,
    compare_with_table,
    diff_sensitivity,
    evaluate,
    expected_values,
    gen_event_level,
    gen_user_level,
    monotone_release,
    mst_tightness_pair,
    num_levels,
    release,
    spread_of,
    target_function,
    theoretical_release_error,
    threshold_budget,
    trans,
    unbounded_pair,
)
from continualdp.counting import prefix_intervals

from conftest import max_degree, random_sequence

SEED = 20260824


def _ok(msg: str) -> None:
    print(f"[PASS] {msg}")


# 1 ---------------------------------------------------------------------


def test_criterion_1_sensitivity_table_soundness():
    functions = [
        GraphFunction("edge_count"),
        GraphFunction("high_degree", tau=2),
        GraphFunction("degree_histogram"),
        GraphFunction("triangle_count"),
        GraphFunction("kstar_count", k=2),
        GraphFunction("kstar_count", k=3),
        GraphFunction("mst_weight"),
    ]
    cells = []
    for f in functions:
        cells.append((f, "edge", "incremental"))
        cells.append((f, "edge", "decremental"))
        cells.append((f, "node", "incremental"))
        cells.append((f, "node", "decremental"))
    cells.append((GraphFunction("edge_count"), "edge", "fully-dynamic"))
    for f, adjacency, regime in cells:
        scope = OracleScope(
            n_max=5, T_max=4, W_max=3, D_max=4, adjacency=adjacency,
            regime=regime, max_pairs=120, seed=SEED,
        )
        verdict = compare_with_table(f, scope)
        assert verdict.status != "Violation", (
            f.label(), adjacency, regime, verdict.oracle_value, verdict.formula_at_max,
        )
    _ok(f"criterion 1: all {len(cells)} finite table cells sound within scope")


# 2 ---------------------------------------------------------------------


def test_criterion_2_tightness_fixtures():
    mst = GraphFunction("mst_weight")
    for W in (1, 2, 3):
        a, b = mst_tightness_pair(W)
        assert diff_sensitivity(mst, a, b) == 2 * W, W
    unbounded_cells = [
        (GraphFunction("high_degree", tau=3), "edge"),
        (GraphFunction("high_degree", tau=3), "node"),
        (GraphFunction("degree_histogram"), "edge"),
        (GraphFunction("degree_histogram"), "node"),
        (GraphFunction("triangle_count"), "edge"),
        (GraphFunction("triangle_count"), "node"),
        (GraphFunction("kstar_count", k=2), "edge"),
        (GraphFunction("kstar_count", k=2), "node"),
        (GraphFunction("mst_weight"), "edge"),
        (GraphFunction("mst_weight"), "node"),
        (GraphFunction("edge_count"), "node"),
        (GraphFunction("min_cut"), "edge"),
        (GraphFunction("min_cut"), "node"),
        (GraphFunction("max_weight_matching"), "edge"),
        (GraphFunction("max_weight_matching"), "node"),
        (GraphFunction("max_cardinality_matching"), "edge"),
        (GraphFunction("max_cardinality_matching"), "node"),
    ]
    for f, adjacency in unbounded_cells:
        for T in (2, 4, 6):
            a, b = unbounded_pair(f, adjacency, T, W=3)
            assert diff_sensitivity(f, a, b) >= T, (f.label(), adjacency, T)
    _ok("criterion 2: MST tight at 2W and unbounded fixtures reach >= T")


# 3 ---------------------------------------------------------------------


def test_criterion_3_generator_identities():
    cases = [
        ("mst", "edge", dict(W=5)),
        ("mst", "node", dict(W=5)),
        ("min_cut", "edge", dict(W=5)),
        ("min_cut", "node", dict(W=5)),
        ("matching", "edge", dict(W=5)),
        ("matching", "node", dict(W=5)),
        ("edge_count", "edge", {}),
        ("high_degree", "edge", dict(tau=2)),
        ("degree_histogram", "edge", {}),
        ("triangle", "edge", {}),
        ("kstar", "edge", dict(k=3)),
        ("edge_count", "node", dict(D=6)),
        ("high_degree", "node", dict(D=6, tau=4)),
        ("degree_histogram", "node", dict(D=6)),
        ("triangle", "node", dict(D=6)),
        ("kstar", "node", dict(D=6, k=5)),
    ]
    rng = RandomSource(SEED)
    for target, adjacency, kwargs in cases:
        # the hypercube family caps its horizon at the cut dimension
        T = 6 if target == "min_cut" and adjacency == "edge" else 32
        sigma = [int(rng.child(f"{target}:{adjacency}:{i}").integers(0, 2))
                 for i in range(T)]
        f = target_function(target, tau=kwargs.get("tau"), k=kwargs.get("k"))
        seq = gen_event_level(target, adjacency, sigma, **kwargs)
        expect = expected_values(
            target, adjacency, sigma, W=kwargs.get("W", 1), D=kwargs.get("D")
        )
        for t, (g, want) in enumerate(zip(seq.iter_graphs(), expect), start=1):
            val = evaluate(f, g)
            if f.name == "degree_histogram":
                val = val[2] if len(val) > 2 else 0
            assert float(val) == float(want), (target, adjacency, t)
    _ok(f"criterion 3: {len(cases)} generator closed forms exact up to T=32, W=5")


# 4 ---------------------------------------------------------------------


def test_criterion_4_zero_noise_reconstruction(zero_noise):
    functions = [
        GraphFunction("edge_count"),
        GraphFunction("high_degree", tau=2),
        GraphFunction("degree_histogram"),
        GraphFunction("triangle_count"),
        GraphFunction("kstar_count", k=2),
        GraphFunction("mst_weight"),
    ]
    rng = RandomSource(SEED)
    for i in range(500):
        seq = random_sequence(rng.child(i), n_max=6, T_max=10, kind="incremental")
        f = functions[i % len(functions)]
        # +2 and +1 keep Gamma positive: k-stars with D < k and MST with W = 1 give 0
        report = release(
            seq, f, 1.0, 0.05, rng.child(f"rel{i}"),
            D=max_degree(seq) + 2, W=seq.max_weight() + 1,
        )
        assert all(rec.abs_error == 0 for rec in report.records), (i, f.label())
    _ok("criterion 4: 500 random incremental sequences reconstructed exactly")


# 5 ---------------------------------------------------------------------


def test_criterion_5_binary_mechanism_error():
    f = GraphFunction("edge_count")
    rng = RandomSource(SEED)
    for T in (256, 1024):
        sigma = [int(rng.child(f"s{T}:{i}").integers(0, 2)) for i in range(T)]
        seq = gen_event_level("edge_count", "edge", sigma)
        bound = theoretical_release_error(1.0, 1.0, 0.05, T)
        within = 0
        for trial in range(200):
            report = release(seq, f, 1.0, 0.05, rng.child(f"t{T}:{trial}"))
            assert report.bound == pytest.approx(bound)
            within += report.max_abs_error <= bound
        assert within >= 186, (T, within)
        _ok(f"criterion 5: T={T}: {within}/200 trials within the error bound")


# 6 ---------------------------------------------------------------------


def test_criterion_6_polylog_growth():
    rng = RandomSource(SEED)

    def max_error(T: int, trial: int) -> float:
        # a zero stream makes the estimate itself the error
        mech = BinaryMechanism(T, 1.0, rng.child(f"{T}:{trial}"), item_width=1.0)
        _recs, est = mech.feed(np.zeros(T))
        return float(np.max(np.abs(est)))

    ratios = [max_error(4096, i) / max_error(64, i) for i in range(100)]
    limit = 3 * (math.log2(4096) / math.log2(64)) ** 1.5
    limit *= num_levels(4096) / num_levels(64)
    med = statistics.median(ratios)
    assert med <= limit, (med, limit)
    _ok(f"criterion 6: median error ratio {med:.2f} <= {limit:.2f}")


# 7 ---------------------------------------------------------------------


def test_criterion_7_monotone_mechanism():
    # weighted matching of the node gadget runs W * S_t <= W * T, so r = W * T
    T, W, eps, beta, delta = 128, 2, 1.0, 0.5, 0.1
    f = GraphFunction("max_weight_matching")
    rng = RandomSource(SEED)
    all_hold = 0
    runs = 500
    for run in range(runs):
        child = rng.child(f"run{run}")
        sigma = [int(child.child(i).integers(0, 2)) for i in range(T)]
        seq = gen_event_level("matching", "node", sigma, W=W)
        trues = [float(v) for v in expected_values("matching", "node", sigma, W=W)]
        report = monotone_release(
            seq, f, eps, beta, delta, child.child("mech"), r=W * T, W=W, true_values=trues
        )
        assert report.top_count <= report.c, run
        assert report.c == threshold_budget(beta, report.r)
        all_hold += report.all_bounds_hold
    # (1 - delta) fraction with two-sigma binomial slack
    need = math.ceil(runs * (1 - delta) - 2 * math.sqrt(runs * delta * (1 - delta)))
    assert all_hold >= need, (all_hold, need)
    _ok(f"criterion 7: sandwich held in {all_hold}/{runs} runs (need {need})")


# 8 ---------------------------------------------------------------------


def test_criterion_8_svt_structure(zero_noise):
    values = [0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 5.0, 7.0, 9.0, 12.0]
    thresholds = [0.0, 0.5, 1.0, 2.5, 3.0, 4.5, 5.0, 6.0, 8.0, 12.0]
    budgets = range(1, 11)
    checked = 0
    for v in values:
        for thr in thresholds:
            for c in budgets:
                svt = SparseVector(1.0, 1.0, c, RandomSource(0))
                if v >= thr:
                    # boundary inclusive; abort once the budget is spent
                    for _ in range(c):
                        assert svt.query(v, thr) is SvtAnswer.TOP
                    assert svt.query(v, thr) is SvtAnswer.ABORT
                else:
                    for _ in range(c + 1):
                        assert svt.query(v, thr) is SvtAnswer.BOTTOM
                checked += 1
    assert checked == 1000
    _ok("criterion 8: zero-noise SVT matches on all 1000 grid triples")


# 9 ---------------------------------------------------------------------


def _phase_pairs():
    from continualdp import Graph

    g1 = Graph.from_edges([(0, 1), (2, 3)])
    g2 = Graph.from_edges([(0, 1), (1, 2)], extra_nodes=[3])
    toy = (g1, g2, (0, 1), GraphFunction("high_degree", tau=2))
    spec = spread_of(GraphFunction("mst_weight"), 4, W=3)
    spread = (spec.g1, spec.g2, spec.spared_edge, GraphFunction("mst_weight"))
    return [toy, spread]


def test_criterion_9_user_level_construction():
    for g1, g2, spared, f in _phase_pairs():
        ell = len(trans(g1, g2))
        assert ell in (2, 4)
        s = abs(float(evaluate(f, g1)) - float(evaluate(f, g2)))
        assert s > 0
        bit_strings = [[1], [0, 1], [1, 0], [1, 1, 0], [0, 1, 1, 0]]
        for bits in bit_strings:
            seq = gen_user_level(g1, g2, spared, bits)
            H = [seq.initial] + seq.materialize()
            assert all(H[i] == g1 for i in range(0, len(H), 4 * ell))
            assert all(H[i] == g2 for i in range(2 * ell, len(H), 4 * ell))
        for bits_a, bits_b in [([1, 0], [0, 0]), ([1, 1, 0], [1, 0, 0])]:
            a = gen_user_level(g1, g2, spared, bits_a).materialize()
            b = gen_user_level(g1, g2, spared, bits_b).materialize()
            gap = max(
                abs(float(evaluate(f, x)) - float(evaluate(f, y)))
                for x, y in zip(a, b)
            )
            assert gap >= s, (f.label(), bits_a, bits_b, gap, s)
    _ok("criterion 9: phase identities and value gap >= s for ell in {2, 4}")


# 10 --------------------------------------------------------------------


def test_criterion_10_psum_audit():
    for T in (8, 64, 1000):
        x = math.floor(math.log2(T)) + 1
        mech = BinaryMechanism(T, 1.0, RandomSource(SEED), item_width=1.0)
        for _ in range(T):
            mech.feed(1.0)
        records = mech.trace()
        for rec in records:
            assert rec.scale >= 1.0 * x / 1.0 - 1e-12, (T, rec)
        for t in range(1, T + 1):
            touched = sum(1 for rec in records if rec.start <= t <= rec.end)
            assert touched <= x, (T, t, touched)
            # the dyadic decomposition of the prefix stays within x too
            assert len(prefix_intervals(t)) <= x
    _ok("criterion 10: p-sum touch count <= x and scale >= Gamma*x/eps")
