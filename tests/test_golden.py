"""Byte-for-byte pins of the CLI release, experiment, sensitivity and
generate output.

Each log is built here from a fixed seed, so the test covers the whole
path: serializing, parsing, replaying, releasing and writing the CSV.
The monotone releases pin the exact min cut, s-t min cut and densest
subgraph values that the SVT ladder compares against its thresholds.
The sensitivity reports pin which oracle draws pass the adjacency check,
the generated pair pins its witness and both logs, and ``generators.txt``
pins the logs of the event-level reductions and the sensitivity fixture
pairs.  The files under ``tests/golden`` hold the expected bytes; rewrite
them only for a change that is meant to alter what a seed releases, which
pairs are adjacent or what a generator builds.
"""

from pathlib import Path

import pytest

from continualdp import (
    Graph,
    GraphFunction,
    GraphSequence,
    RandomSource,
    Update,
    adjacent_pair,
    gen_event_level,
    mst_tightness_pair,
    serialize_sequence,
    unbounded_pair,
)
from continualdp.cli import main

from conftest import CliRunner, random_sequence
from test_generators import CASES as GENERATOR_CASES

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "edge_count_fully_dynamic": (
        "fully-dynamic",
        ["--function", "edge_count"],
    ),
    "degree_histogram_incremental": (
        "incremental",
        ["--function", "degree_histogram", "-D", "12"],
    ),
    # a large epsilon and a fine ladder, so the output follows the exact values
    "monotone_min_cut": (
        "edges",
        ["--mechanism", "monotone", "--function", "min_cut", "-W", "2", "--range-r", "24",
         "--beta", "0.1"],
        "50",
    ),
    "monotone_st_min_cut": (
        "edges",
        ["--mechanism", "monotone", "--function", "st_min_cut", "--s", "0", "--t", "1", "-W",
         "2", "--range-r", "24", "--beta", "0.1"],
        "50",
    ),
    "monotone_densest_subgraph": (
        "incremental",
        ["--mechanism", "monotone", "--function", "densest_subgraph", "--range-r", "20",
         "--beta", "0.1"],
        "50",
    ),
}


def _edge_log(rng: RandomSource, n: int, T: int, W: int) -> GraphSequence:
    """An insertion-only log on n fixed nodes: each step inserts one to
    three absent edges of weight 1..W."""
    absent = [(u, v) for u in range(n) for v in range(u + 1, n)]
    updates = []
    for _ in range(T):
        e_ins = {}
        for _ in range(min(rng.integers(1, 4), len(absent))):
            e_ins[absent.pop(rng.integers(0, len(absent)))] = rng.integers(1, W + 1)
        updates.append(Update(e_ins=e_ins))
    return GraphSequence(Graph(set(range(n)), {}), updates)


def _run(tmp_path: Path, command: str, kind: str, args: list[str], epsilon: str = "1") -> bytes:
    if kind == "edges":
        seq = _edge_log(RandomSource(808), n=12, T=30, W=2)
    else:
        seq = random_sequence(RandomSource(808), n_max=8, T_max=40, kind=kind)
    log = tmp_path / "seq.log"
    log.write_text(serialize_sequence(seq))
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(
        main,
        [command, *args, "--epsilon", epsilon, "--delta", "0.05",
         "--input", str(log), "--seed", "17", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_release_output_is_pinned(tmp_path, name):
    assert _run(tmp_path, "release", *CASES[name]) == (GOLDEN / f"{name}.csv").read_bytes()


EXPERIMENTS = {
    "experiment_degree_histogram": ("incremental", ["--function", "degree_histogram", "-D", "12"]),
    "experiment_edge_count": ("fully-dynamic", ["--function", "edge_count"]),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_output_is_pinned(tmp_path, name):
    # the # summary: line pins the quantiles of the per-trial max error
    kind, args = EXPERIMENTS[name]
    got = _run(tmp_path, "experiment", kind, [*args, "--trials", "3"])
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


SENSITIVITY = {
    "sensitivity_triangle_count_edge.json":
        ["--function", "triangle_count", "--seed", "5", "--max-pairs", "60"],
    "sensitivity_edge_count_node.json":
        ["--function", "edge_count", "--adjacency", "node", "--d-max", "4", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(SENSITIVITY))
def test_sensitivity_output_is_pinned(tmp_path, name):
    out = tmp_path / "out.json"
    result = CliRunner().invoke(main, ["sensitivity", *SENSITIVITY[name], "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_generated_pair_is_pinned(tmp_path):
    log = tmp_path / "mst.log"
    result = CliRunner().invoke(main, ["generate", "--target", "mst", "--adjacency", "node",
                                       "--sigma", "1011", "-W", "3", "--flip", "2",
                                       "--out", str(log)])
    assert result.exit_code == 0, result.output
    for suffix in ("", ".partner", ".expected.json"):
        golden = GOLDEN / f"generate_mst_node_flip2.log{suffix}"
        assert Path(f"{log}{suffix}").read_bytes() == golden.read_bytes(), suffix


# every function and adjacency unbounded_pair accepts
UNBOUNDED = [
    *[(f, adj) for f in ("high_degree", "degree_histogram", "triangle_count", "kstar_count",
                         "mst_weight", "min_cut", "max_weight_matching",
                         "max_cardinality_matching") for adj in ("edge", "node")],
    ("edge_count", "node"),
]


def _generators_text() -> str:
    parts = []
    for target, adjacency, kwargs in GENERATOR_CASES:
        label = f"{target} {adjacency} {sorted(kwargs.items())}"
        seq = gen_event_level(target, adjacency, [1, 0, 1, 1], **kwargs)
        pair = adjacent_pair(target, adjacency, [1, 0, 1, 1], 2, **kwargs)
        parts += [f"# gen_event_level {label} sigma=1011\n", serialize_sequence(seq),
                  f"# adjacent_pair {label} flip=2\n", serialize_sequence(pair.b)]
    for name, adjacency in UNBOUNDED:
        f = GraphFunction(name, tau=3 if name == "high_degree" else None,
                          k=2 if name == "kstar_count" else None)
        a, b = unbounded_pair(f, adjacency, 5)
        parts += [f"# unbounded_pair {name} {adjacency} T=5 a\n", serialize_sequence(a),
                  f"# unbounded_pair {name} {adjacency} T=5 b\n", serialize_sequence(b)]
    for W in (1, 2, 3):
        a, b = mst_tightness_pair(W)
        parts += [f"# mst_tightness_pair W={W} a\n", serialize_sequence(a),
                  f"# mst_tightness_pair W={W} b\n", serialize_sequence(b)]
    return "".join(parts)


def test_generator_output_is_pinned():
    assert _generators_text().encode() == (GOLDEN / "generators.txt").read_bytes()
