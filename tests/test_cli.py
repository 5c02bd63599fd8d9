import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continualdp import GraphFunction, GraphSequence, RandomSource, __version__, parse_sequence
from continualdp import cli
from continualdp.cli import _quantiles, main
from continualdp.release import release as diff_release

from conftest import CliRunner


@pytest.fixture
def runner():
    return CliRunner()


def _generate(runner, tmp_path, *extra):
    out = tmp_path / "seq.txt"
    args = [
        "generate", "--target", "mst", "--sigma", "101", "-W", "5",
        "--out", str(out), *extra,
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out


def test_generate_writes_log_and_sidecar(runner, tmp_path):
    out = _generate(runner, tmp_path)
    seq = parse_sequence(out.read_text())
    assert seq.T == 3
    sidecar = json.loads((tmp_path / "seq.txt.expected.json").read_text())
    assert sidecar["expected"] == [8, 8, 13]  # W*S_t + t with W=5
    assert sidecar["version"] == __version__
    assert sidecar["function"] == "mst_weight"


def test_generate_flip_writes_partner_and_witness(runner, tmp_path):
    out = _generate(runner, tmp_path, "--flip", "2")
    a = parse_sequence(out.read_text())
    b = parse_sequence((tmp_path / "seq.txt.partner").read_text())
    assert a.T == b.T == 3
    sidecar = json.loads((tmp_path / "seq.txt.expected.json").read_text())
    assert sidecar["witness"]["kind"] == "edge-event"
    assert sidecar["witness"]["t_star"] == 2
    assert sidecar["expected"] != sidecar["expected_partner"]


def test_generate_rejects_bad_sigma(runner, tmp_path):
    result = runner.invoke(
        main,
        ["generate", "--target", "mst", "--sigma", "10x",
         "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 2


def test_eval_emits_csv(runner, tmp_path):
    out = _generate(runner, tmp_path)
    result = runner.invoke(
        main, ["eval", "--function", "mst_weight", "--input", str(out)]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "t,value"
    assert [line.split(",")[1] for line in lines[1:]] == ["8", "8", "13"]


def test_release_file_holds_only_the_released_values(runner, tmp_path, zero_noise):
    out = _generate(runner, tmp_path)
    csv = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--function", "mst_weight", "--epsilon", "1", "--delta",
         "0.05", "-W", "5", "--input", str(out), "--out", str(csv), "--seed", "3"],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("bound ")
    lines = csv.read_text().splitlines()
    assert lines[0] == f"# artifact-version: {__version__}"
    assert json.loads(lines[1][len("# config: "):]) == {
        "mechanism": "diff", "function": "mst_weight", "epsilon": 1.0, "delta": 0.05,
        "adjacency": "edge", "D": None, "W": 5,
    }
    # with zero noise the released values are the exact ones, 8, 8, 13
    assert lines[2:] == ["t,released", "1,8.000000", "2,8.000000", "3,13.000000"]


def test_release_monotone_outputs_powers_of_two(runner, tmp_path):
    out = tmp_path / "cut.txt"
    result = runner.invoke(
        main,
        ["generate", "--target", "min_cut", "--sigma", "1101", "-W", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    csv = tmp_path / "mono.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "min_cut",
         "--epsilon", "1", "--delta", "0.1", "--beta", "1", "-W", "2", "--range-r", "10",
         "--input", str(out), "--out", str(csv), "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("alpha ")
    rows = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "t,output"
    for row in rows[1:]:
        out_val = float(row.split(",")[1])
        assert out_val == 2 ** round(math.log2(out_val))


def test_release_monotone_requires_weight_bound(runner, tmp_path):
    out = tmp_path / "cut.txt"
    result = runner.invoke(
        main,
        ["generate", "--target", "min_cut", "--adjacency", "node",
         "--sigma", "1101", "-W", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    csv = tmp_path / "mono.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "min_cut",
         "--epsilon", "1", "--delta", "0.1", "--range-r", "10", "--input", str(out),
         "--out", str(csv), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "weight bound W" in result.output
    assert not csv.exists()


@pytest.mark.parametrize("function", ["max_cardinality_matching", "densest_subgraph"])
def test_release_monotone_requires_declared_range(runner, tmp_path, function):
    log = tmp_path / "path.txt"
    log.write_text("t=0 +v:0,1,2\nt=1 +e:0-1:1\nt=2 +e:1-2:1\n")
    csv = tmp_path / "mono.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", function,
         "--epsilon", "1", "--delta", "0.1", "--input", str(log),
         "--out", str(csv), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "--range-r" in result.output
    assert not csv.exists()


def test_release_monotone_refuses_a_degree_bound(runner, tmp_path):
    # no monotone statistic uses D, so a declared D would be published unchecked
    log = tmp_path / "path.txt"
    log.write_text("t=0 +v:0,1,2\nt=1 +e:0-1:1\nt=2 +e:1-2:1\n")
    csv = tmp_path / "mono.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "max_cardinality_matching",
         "--range-r", "4", "-D", "1", "--epsilon", "1", "--delta", "0.05",
         "--input", str(log), "--out", str(csv), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "--degree-bound" in result.output
    assert not csv.exists()


def test_release_rejects_unbounded_combination(runner, tmp_path):
    out = tmp_path / "cut.txt"
    runner.invoke(
        main,
        ["generate", "--target", "min_cut", "--adjacency", "node",
         "--sigma", "11", "-W", "2", "--out", str(out)],
    )
    result = runner.invoke(
        main,
        ["release", "--function", "min_cut", "--epsilon", "1",
         "--delta", "0.05", "--input", str(out), "--seed", "1"],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("epsilon", ["nan", "inf", "0"])
@pytest.mark.parametrize(
    "mechanism, function", [("diff", "mst_weight"), ("monotone", "max_weight_matching")]
)
def test_release_rejects_non_finite_epsilon(runner, tmp_path, mechanism, function, epsilon):
    seq = _generate(runner, tmp_path)
    csv = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", mechanism, "--function", function,
         "--epsilon", epsilon, "--delta", "0.05", "-W", "5", "--input", str(seq),
         "--out", str(csv), "--seed", "1"]
        + (["--range-r", "10"] if mechanism == "monotone" else []),
    )
    assert result.exit_code == 2, result.output
    assert "epsilon" in result.output
    assert not csv.exists()


@pytest.mark.parametrize("args, message", [
    (["--function", "edge_count", "--epsilon", "1e-320"], "scale must be positive and finite"),
    (["--function", "edge_count", "--epsilon", "1e-300"], "bound too large for a float"),
    (["--function", "mst_weight", "-W", str(10**400), "--epsilon", "1"],
     "mst_weight sensitivity is too large for a float"),
    (["--function", "triangle_count", "-D", str(10**400), "--epsilon", "1"],
     "triangle_count sensitivity is too large for a float"),
    (["--mechanism", "monotone", "--function", "min_cut", "-W", str(10**400),
      "--range-r", "10", "--epsilon", "1"], "W is too large for a float"),
], ids=["epsilon=1e-320", "epsilon=1e-300", "mst-W", "triangle-D", "monotone-W"])
def test_release_refuses_values_too_large_for_a_float(runner, tmp_path, args, message):
    log, csv = tmp_path / "s.log", tmp_path / "rel.csv"
    log.write_text("t=0 +v:0,1,2\nt=1 +e:0-1:1\nt=2 +e:1-2:1\nt=3 +e:0-2:1\n")
    result = runner.invoke(main, ["release", *args, "--delta", "0.05", "--input", str(log),
                                  "--out", str(csv), "--seed", "1"])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output and message in result.output
    assert not csv.exists()


@pytest.mark.parametrize("function", [["min_cut"], ["st_min_cut", "--s", "0", "--t", "1"]],
                         ids=["min_cut", "st_min_cut"])
@pytest.mark.parametrize("command", [
    ["eval"],
    ["release", "--mechanism", "monotone", "-W", str(10**308), "--range-r", "10",
     "--epsilon", "1", "--delta", "0.05", "--seed", "1"],
], ids=["eval", "monotone"])
def test_a_cut_too_large_for_a_float_is_refused(runner, tmp_path, command, function):
    # each weight fits a float and the declared W, but every cut weighs 2 * 10**308
    log, csv = tmp_path / "big.log", tmp_path / "out.csv"
    w = 10**308
    log.write_text(f"t=0 +v:0,1,2\nt=1 +e:0-1:{w},1-2:{w},0-2:{w}\n")
    result = runner.invoke(main, [*command, "--function", *function, "--input", str(log),
                                  "--out", str(csv)])
    assert result.exit_code == 2, result.output
    assert "error: cut value is too large for a float" in result.output
    assert not csv.exists()


@pytest.mark.parametrize("args, label", [
    (["--function", "kstar_count", "--k", "3", "-D", "2"], "kstar_count(k=3)"),
    (["--function", "kstar_count", "--k", "3", "-D", "2", "--adjacency", "node"],
     "kstar_count(k=3)"),
    (["--function", "triangle_count", "-D", "1", "--adjacency", "node"], "triangle_count"),
], ids=["kstar-edge", "kstar-node", "triangle-node"])
def test_release_refuses_a_statistic_that_is_0_under_its_D(runner, tmp_path, args, label):
    # Gamma = 0: no graph of max degree D has a 3-star, or a triangle at D = 1
    log, csv = tmp_path / "s.log", tmp_path / "rel.csv"
    log.write_text("t=0 +v:0,1,2\nt=1 +e:0-1:1\nt=2 +e:1-2:1\n")
    result = runner.invoke(main, ["release", *args, "--epsilon", "1", "--delta", "0.05",
                                  "--input", str(log), "--out", str(csv), "--seed", "1"])
    assert result.exit_code == 2, result.output
    D = args[args.index("-D") + 1]
    assert f"error: {label} is 0 on every graph of max degree D={D}" in result.output
    assert not csv.exists()


@pytest.mark.parametrize("delta", ["nan", "inf", "0", "2"])
def test_release_monotone_rejects_delta_outside_unit_interval(runner, tmp_path, delta):
    seq = _generate(runner, tmp_path)
    csv = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "max_weight_matching",
         "--epsilon", "1", "--delta", delta, "-W", "5", "--range-r", "10", "--input", str(seq),
         "--out", str(csv), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "delta" in result.output
    assert not csv.exists()


def test_sensitivity_command_reports_json(runner):
    result = runner.invoke(
        main,
        ["sensitivity", "--function", "edge_count", "--n-max", "4",
         "--t-max", "3", "--max-pairs", "30", "--seed", "9"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] in ("Sound", "Tight")
    assert payload["seed"] == 9
    assert payload["witness"] is None or len(payload["witness"]) == 2


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("function,regime", [("min_cut", "incremental"),
                                             ("triangle_count", "fully-dynamic")])
def test_sensitivity_of_an_unbounded_cell_is_strict_json(runner, tmp_path, function, regime):
    out = tmp_path / "s.json"
    result = runner.invoke(main, ["sensitivity", "--function", function, "--regime", regime,
                                  "--seed", "3", "--max-pairs", "20", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert payload["formula_at_max"] is None


@pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
def test_an_unbounded_cell_reports_no_formula_whatever_the_draws(runner, seed):
    # at seed 2 neither drawn pair's difference sequences differ
    result = runner.invoke(main, ["sensitivity", "--function", "max_cardinality_matching",
                                  "--max-pairs", "2", "--n-max", "3", "--t-max", "1",
                                  "--seed", seed])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["formula_at_max"] is None
    assert (payload["witness"] is None) == (payload["oracle_value"] == 0)


@pytest.mark.parametrize("regime", [None, "incremental", "decremental", "fully-dynamic"])
def test_node_level_st_min_cut_sensitivity_skips_pairs_without_terminals(runner, regime):
    # node-level draws may start without a terminal or delete one; such a
    # pair is a failed draw, not the end of the check
    args = ["sensitivity", "--function", "st_min_cut", "--s", "0", "--t", "1",
            "--adjacency", "node", "--seed", "5", "--max-pairs", "25", "--n-max", "4",
            "--t-max", "3", "--d-max", "4"]
    result = runner.invoke(main, args + (["--regime", regime] if regime else []))
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["pairs_tested"] >= 1


def test_release_of_a_fully_dynamic_log_builds_no_update_view(runner, tmp_path, monkeypatch):
    # steps out of order, a node deletion and a same-step weight change
    log = tmp_path / "dyn.log"
    log.write_text("t=2 -e:1-2 -v:2\n"
                   "t=0 +v:0,1,2 +e:0-1:2,1-2:1\n"
                   "t=3 +v:4 +e:1-4:1,0-4:2\n"
                   "t=1 -e:0-1 +e:0-1:3\n")
    def refuse(self):
        raise AssertionError("seq.updates was built")

    monkeypatch.setattr(GraphSequence, "updates", property(refuse))
    seq = parse_sequence(log.read_text())
    assert seq.kind.value == "fully-dynamic"
    diff_release(seq, GraphFunction("edge_count"), 1.0, 0.05, RandomSource(1))
    out = tmp_path / "r.csv"
    result = runner.invoke(main, ["release", "--function", "edge_count", "--epsilon", "1",
                                  "--delta", "0.05", "--input", str(log), "--seed", "1",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [row.split(",")[0] for row in out.read_text().splitlines()[-3:]] == ["1", "2", "3"]
    result = runner.invoke(main, ["eval", "--function", "edge_count", "--input", str(log)])
    assert result.exit_code == 0, result.output
    assert result.output == "t,value\n1,2\n2,1\n3,3\n"


def test_verify_suites_pass(runner):
    for suite in ("generators", "bounds"):
        result = runner.invoke(main, ["verify", suite])
        assert result.exit_code == 0, result.output
        assert "[FAIL]" not in result.output
        assert "[PASS]" in result.output


def test_verify_sensitivity_suite_passes(runner):
    result = runner.invoke(main, ["verify", "sensitivity"])
    assert result.exit_code == 0, result.output
    assert "Violation" not in result.output


def test_experiment_writes_csv_and_plot(runner, tmp_path):
    seq = _generate(runner, tmp_path)
    csv = tmp_path / "exp.csv"
    result = runner.invoke(
        main,
        ["experiment", "--function", "mst_weight", "--epsilon", "1",
         "--delta", "0.05", "-W", "5", "--input", str(seq),
         "--trials", "5", "--seed", "4", "--out", str(csv)],
    )
    assert result.exit_code == 0, result.output
    lines = csv.read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0] == "trial,seed,max_abs_error,bound,within_bound"
    assert len(rows) == 6
    # the summary line follows the config line and agrees with the rows
    assert lines[2].startswith("# config: ")
    assert lines[3].startswith("# summary: ")
    summary = json.loads(lines[3][len("# summary: "):])
    table = [dict(zip(rows[0].split(","), row.split(","))) for row in rows[1:]]
    errors = [float(r["max_abs_error"]) for r in table]
    assert summary["trials"] == 5
    assert summary["within_bound"] == sum(int(r["within_bound"]) for r in table)
    assert summary["within_fraction"] == summary["within_bound"] / 5
    assert all(float(r["bound"]) == summary["bound"] for r in table)
    assert summary["min"] == min(errors)
    assert summary["max"] == max(errors)
    assert summary["min"] <= summary["median"] <= summary["p90"] <= summary["max"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=25),
    st.lists(st.floats(0, 1), max_size=6),
)
@example([3.0, 1.0, 2.0, 10.0], [0.0, 0.5, 0.9, 1.0])
@example([0.1, 0.2, 0.7], [0.25, 0.75, 0.9])  # both sides of the lerp switch
def test_summary_quantiles_are_numpys_bit_for_bit(values, qs):
    want = np.quantile(values, qs).tolist() if qs else []
    assert [x.hex() for x in _quantiles(values, qs)] == [x.hex() for x in want]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_experiment_rejects_trials_below_one(runner, tmp_path, trials):
    seq = _generate(runner, tmp_path)
    csv = tmp_path / "exp.csv"
    result = runner.invoke(
        main,
        ["experiment", "--function", "mst_weight", "--epsilon", "1",
         "--delta", "0.05", "-W", "5", "--input", str(seq),
         "--trials", trials, "--seed", "4", "--out", str(csv)],
    )
    assert result.exit_code == 2, result.output
    assert "--trials" in result.output
    assert not csv.exists()


@pytest.mark.parametrize("command, message", [
    (["release", "--function", "edge_count"], "horizon must be >= 1, got 0"),
    (["experiment", "--function", "edge_count"], "horizon must be >= 1, got 0"),
    (["release", "--mechanism", "monotone", "--function", "max_cardinality_matching",
      "--range-r", "10"], "T must be >= 1, got 0"),
], ids=["release", "experiment", "monotone"])
def test_release_refuses_a_log_without_steps(runner, tmp_path, command, message):
    seq = tmp_path / "empty.log"
    seq.write_text("t=0\n")
    csv = tmp_path / "out.csv"
    result = runner.invoke(
        main,
        [*command, "--epsilon", "1", "--delta", "0.05", "--input", str(seq), "--seed", "1",
         "--out", str(csv)],
    )
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not csv.exists()


def test_release_never_publishes_a_drawn_seed(runner, tmp_path, monkeypatch):
    # with the seed, anyone could subtract the noise: the counts 1, 2, 3, 2
    # of this fully dynamic log would be published exactly
    monkeypatch.delenv("CONTINUAL_DP_SEED", raising=False)
    drawn = []

    def spy(seed=None):
        rng = RandomSource(seed)
        drawn.append(rng.seed)
        return rng

    monkeypatch.setattr(cli, "RandomSource", spy)
    log = tmp_path / "dyn.log"
    log.write_text("t=0 +v:0,1,2,3\nt=1 +e:0-1:1\nt=2 +e:1-2:1\nt=3 +e:2-3:1\nt=4 -e:0-1\n")
    csv = tmp_path / "rel.csv"
    result = runner.invoke(main, ["release", "--function", "edge_count", "--epsilon", "1",
                                  "--delta", "0.05", "--input", str(log), "--out", str(csv)])
    assert result.exit_code == 0, result.output
    # an unseeded release keys its stream with OS entropy: there is no seed
    assert drawn == [None]
    text = csv.read_text()
    assert "seed" not in result.output and "seed" not in text
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "t,released"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2", "3", "4"]
    assert all(len(row.split(",")) == 2 for row in rows)


def test_an_experiment_row_seed_replays_its_trial(runner, tmp_path, monkeypatch):
    # without --seed, experiment draws and prints one; each row's seed, given
    # to release --seed, releases that trial again (each bin is a child source)
    monkeypatch.delenv("CONTINUAL_DP_SEED", raising=False)
    log, exp, rel = tmp_path / "seq.txt", tmp_path / "exp.csv", tmp_path / "rel.csv"
    log.write_text("t=0 +v:0,1,2,3\nt=1 +e:0-1:1,1-2:1\nt=2 +e:2-3:1\nt=3 +e:0-3:1\n")
    exact = np.array([[1, 2, 1, 0], [0, 2, 2, 0], [0, 0, 4, 0]])  # nodes per degree 0..3
    args = ["--function", "degree_histogram", "-D", "3", "--epsilon", "1",
            "--delta", "0.05", "--input", str(log)]
    result = runner.invoke(main, ["experiment", *args, "--trials", "3", "--out", str(exp)])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("seed: ")
    lines = exp.read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len({row[2] for row in rows}) == 3
    for _trial, seed, max_abs_error, _bound, _within in rows:
        result = runner.invoke(main, ["release", *args, "--seed", seed, "--out", str(rel)])
        assert result.exit_code == 0, result.output
        released = [line.split(",")[1].split(";")
                    for line in rel.read_text().splitlines()[3:]]
        error = np.abs(np.array(released, float) - exact).max()
        assert error == pytest.approx(float(max_abs_error), abs=2e-6)


def test_seed_env_fallback_releases_what_the_seed_flag_does(runner, tmp_path, monkeypatch):
    out = _generate(runner, tmp_path)
    args = ["release", "--function", "mst_weight", "--epsilon", "1",
            "--delta", "0.05", "-W", "5", "--input", str(out)]
    by_flag, by_env = tmp_path / "flag.csv", tmp_path / "env.csv"
    monkeypatch.delenv("CONTINUAL_DP_SEED", raising=False)
    assert runner.invoke(main, [*args, "--seed", "42", "--out", str(by_flag)]).exit_code == 0
    monkeypatch.setenv("CONTINUAL_DP_SEED", "42")
    assert runner.invoke(main, [*args, "--out", str(by_env)]).exit_code == 0
    assert by_env.read_bytes() == by_flag.read_bytes()


_RELEASE = ["release", "--function", "edge_count", "--epsilon", "1", "--delta", "0.05",
            "--out", "rel.csv"]


@pytest.mark.parametrize("args, env, named", [
    ([], None, None),
    (["bogus"], None, "bogus"),
    ([*_RELEASE, "--eps", "1", "--input", "seq.txt"], None, "--eps"),
    ([*_RELEASE, "--input", "missing.txt"], None, "--input"),
    ([*_RELEASE, "--input", "seq.txt"], "abc", "--seed"),
], ids=["no-command", "unknown-command", "abbreviated-option", "missing-input", "env-seed"])
def test_usage_errors_exit_2_and_name_the_option(runner, tmp_path, monkeypatch, args, env,
                                                 named):
    _generate(runner, tmp_path)  # writes seq.txt
    args = [str(tmp_path / a) if a.endswith((".txt", ".csv")) else a for a in args]
    monkeypatch.delenv("CONTINUAL_DP_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CONTINUAL_DP_SEED", env)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert named is None or named in result.output
    assert not (tmp_path / "rel.csv").exists()


def test_version_names_the_program_and_exits_0(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output.endswith(f", version {__version__}\n")


@pytest.mark.parametrize("range_r", ["nan", "inf"])
def test_release_monotone_rejects_non_finite_range(runner, tmp_path, range_r):
    seq = _generate(runner, tmp_path)
    csv = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "max_weight_matching",
         "--epsilon", "1", "--delta", "0.05", "-W", "5", "--range-r", range_r,
         "--input", str(seq), "--out", str(csv), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "range r must be in [1, inf)" in result.output
    assert not csv.exists()


def test_release_monotone_refuses_node_adjacency(runner, tmp_path):
    log = tmp_path / "k5.txt"
    edges = ",".join(f"{a}-{b}:1" for a in range(5) for b in range(a + 1, 5))
    log.write_text(f"t=0 +v:0,1,2,3,4 +e:{edges}\nt=1\nt=2 +v:9 +e:0-9:1\n")
    out = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "min_cut",
         "--adjacency", "node", "-W", "1", "--range-r", "10", "--epsilon", "1",
         "--delta", "0.05", "--input", str(log), "--out", str(out), "--seed", "1"],
    )
    assert result.exit_code == 3
    assert "unsupported combination: no node-level rho" in result.output
    assert not out.exists()


def test_release_mst_with_unit_weights(runner, tmp_path):
    # Gamma = 2W = 2 is positive at W = 1; one inserted edge moves the stream by 2
    log = tmp_path / "one.txt"
    log.write_text("t=0 +v:0,1,2\nt=1 +e:0-1:1\n")
    out = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--function", "mst_weight", "-W", "1", "--epsilon", "1",
         "--delta", "0.05", "--input", str(log), "--out", str(out), "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    config = json.loads(out.read_text().splitlines()[1][len("# config: "):])
    assert config["W"] == 1


@pytest.mark.parametrize("last_edges", ["0-4:1,1-4:1", "0-4:1"])
def test_release_monotone_min_cut_refuses_node_updates(runner, tmp_path, last_edges):
    log = tmp_path / "tri.txt"
    log.write_text(f"t=0 +v:0,1,2 +e:0-1:1,0-2:1,1-2:1\nt=1\nt=2 +v:4 +e:{last_edges}\n")
    out = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--mechanism", "monotone", "--function", "min_cut", "-W", "1",
         "--range-r", "10", "--epsilon", "1", "--delta", "0.05",
         "--input", str(log), "--out", str(out), "--seed", "1"],
    )
    assert result.exit_code == 2
    assert "error: min_cut release requires a log without node updates" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("t=0 +v:0,1\nt=1 +e:0-1\n", "error: bad edge insert '0-1'"),
        ("t=0 +v:0,1\nt=1 -e:0-1\n", "error: at t=1: deleting absent edge (0, 1)"),
    ],
)
def test_release_rejects_bad_logs(runner, tmp_path, text, message):
    log = tmp_path / "bad.txt"
    log.write_text(text)
    out = tmp_path / "rel.csv"
    result = runner.invoke(
        main,
        ["release", "--function", "edge_count", "--epsilon", "1", "--delta", "0.05",
         "--input", str(log), "--out", str(out), "--seed", "1"],
    )
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["eval", "--function", "edge_count"],
    ["experiment", "--function", "edge_count", "--epsilon", "1", "--delta", "0.05",
     "--trials", "2", "--seed", "1"],
    ["release", "--mechanism", "monotone", "--function", "max_cardinality_matching",
     "--range-r", "10", "--epsilon", "1", "--delta", "0.05", "--seed", "1"],
], ids=["eval", "experiment", "monotone"])
def test_every_command_rejects_an_invalid_update(runner, tmp_path, command):
    # the log parses; the command's one replay refuses it
    log = tmp_path / "bad.txt"
    log.write_text("t=0 +v:0,1\nt=1 -e:0-1\n")
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [*command, "--input", str(log), "--out", str(out)])
    assert result.exit_code == 2
    assert "error: at t=1: deleting absent edge (0, 1)" in result.output
    assert not out.exists()


def test_experiment_replays_the_log_once(runner, tmp_path, monkeypatch):
    # trial 0 is a full release; trials 1.. get its exact values, and every
    # trial still calls the release through cli.diff_release
    module = importlib.import_module("continualdp.release")
    replays, given = [], []
    replay = module.exact_values
    monkeypatch.setattr(module, "exact_values",
                        lambda *a, **k: replays.append(a) or replay(*a, **k))
    monkeypatch.setattr(cli, "diff_release",
                        lambda *a, **k: given.append(k["exact"]) or diff_release(*a, **k))
    log = _generate(runner, tmp_path)
    out = tmp_path / "exp.csv"
    result = runner.invoke(main, ["experiment", "--function", "degree_histogram", "-D", "12",
                                  "--epsilon", "1", "--delta", "0.05", "--trials", "3",
                                  "--seed", "5", "--input", str(log), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(replays) == 1
    assert len(given) == 3 and given[0] is None
    assert given[1] is given[2] and given[1].shape == (3, 13)


def test_experiment_refuses_epsilon_before_replaying_an_invalid_log(runner, tmp_path):
    log = tmp_path / "bad.txt"
    log.write_text("t=0 +v:0,1\nt=1 -e:0-1\n")
    out = tmp_path / "exp.csv"
    result = runner.invoke(main, ["experiment", "--function", "edge_count", "--epsilon", "inf",
                                  "--delta", "0.05", "--trials", "3", "--seed", "1",
                                  "--input", str(log), "--out", str(out)])
    assert result.exit_code == 2
    assert "error: epsilon must be positive and finite" in result.output
    assert "deleting absent edge" not in result.output
    assert not out.exists()


_ROW_COMMANDS = {
    "release-scalar": ["release", "--function", "edge_count"],
    "release-histogram": ["release", "--function", "degree_histogram", "-D", "12"],
    "experiment": ["experiment", "--function", "degree_histogram", "-D", "12", "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(_ROW_COMMANDS))
def test_cli_builds_no_release_record(runner, tmp_path, monkeypatch, command):
    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the CLI built a ReleaseRecord")

    # the package attribute continualdp.release is the function, not the module
    monkeypatch.setattr(importlib.import_module("continualdp.release"), "ReleaseRecord", Refused)
    log = _generate(runner, tmp_path)
    out = tmp_path / "out.csv"
    result = runner.invoke(main, [*_ROW_COMMANDS[command], "--epsilon", "1", "--delta", "0.05",
                                  "--input", str(log), "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text().count("\n") > 4


@pytest.mark.parametrize(
    "args, trailer",
    [
        (["release", "--function", "edge_count", "--epsilon", "1", "--delta", "0.05"], 1),
        (["release", "--function", "degree_histogram", "-D", "12", "--epsilon", "1",
          "--delta", "0.05"], 1),
        (["release", "--mechanism", "monotone", "--function", "max_cardinality_matching",
          "--range-r", "9", "--epsilon", "1", "--delta", "0.05"], 1),
        (["eval", "--function", "degree_histogram"], 0),
        (["eval", "--function", "triangle_count"], 0),
    ],
)
def test_stdout_rows_match_the_out_file(runner, tmp_path, args, trailer):
    log = _generate(runner, tmp_path)
    seed = ["--seed", "8"] if args[0] == "release" else []
    out = tmp_path / "rows.csv"
    to_file = runner.invoke(main, [*args, *seed, "--input", str(log), "--out", str(out)])
    to_stdout = runner.invoke(main, [*args, *seed, "--input", str(log)])
    assert to_file.exit_code == to_stdout.exit_code == 0, to_stdout.output
    lines = to_stdout.output.splitlines(keepends=True)
    assert "".join(lines[:len(lines) - trailer]) == out.read_text()
    assert to_file.output == "".join(lines[len(lines) - trailer:])
