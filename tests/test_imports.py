"""What a run loads: generators, oracle and monotone only on first use,
and numpy only where code builds an array.  OpenSSL's ``_hashlib`` comes
only with numpy: the noise stream hashes with CPython's built-in SHAKE-256
and BLAKE2b, and only the numpy draws read it through ``hashlib``.  No
release path loads ``click`` (the CLI parses with argparse) or
``dataclasses`` and the ``inspect`` it imports (records are named tuples);
numpy brings ``inspect`` of its own, and the diagnostic oracle and
generators keep their dataclasses.

Each check runs in a fresh interpreter, so modules loaded by other tests
do not count.
"""

import pytest

from conftest import loaded_modules

LAZY = ("continualdp.generators", "continualdp.oracle", "continualdp.monotone")
REFLECTION = ("click", "dataclasses", "inspect")

_CLI = """
from continualdp.cli import main
try:
    main(args={args!r}, prog_name="continual-dp")
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
"""


@pytest.mark.parametrize("code", ["import continualdp", "import continualdp.cli"])
def test_import_loads_no_lazy_module(code):
    assert loaded_modules(code, *LAZY, "numpy", "_hashlib", *REFLECTION) == []


def test_parse_and_local_evaluators_load_no_numpy():
    code = """
from continualdp import GraphFunction, evaluate, parse_sequence
from continualdp.release import exact_values
seq = parse_sequence("t=0 +v:0,1,2,3\\nt=1 +e:0-1:1,1-2:1\\nt=2 +e:0-2:1,2-3:1\\n")
for name in ("edge_count", "triangle_count", "degree_histogram"):
    f = GraphFunction(name)
    assert [evaluate(f, g) for g in seq.iter_graphs()] == exact_values(seq, f, D=3)
"""
    assert loaded_modules(code, "numpy", "_hashlib") == []


@pytest.mark.parametrize(
    "args, loaded",
    [
        # a scalar statistic's columns are lists, and one source draws into
        # array('d') stores; a histogram's mechanism holds numpy arrays, drawn
        # through hashlib's SHAKE
        (["release", "--function", "edge_count"], []),
        (["experiment", "--function", "degree_histogram", "-D", "3", "--trials", "2"],
         ["numpy", "_hashlib"]),
        (["experiment", "--function", "edge_count", "--trials", "2"], []),
        # the control: the monotone mechanism is loaded when it runs, and its
        # exact values and SVT build no array
        (["release", "--mechanism", "monotone", "--function", "min_cut", "-W", "1",
          "--range-r", "10"],
         ["continualdp.monotone"]),
        # exact values and the oracle build no array
        (["eval", "--function", "edge_count"], []),
        (["eval", "--function", "min_cut"], []),
        (["eval", "--function", "densest_subgraph"], []),
        (["sensitivity", "--function", "edge_count", "--max-pairs", "20"],
         ["continualdp.generators", "continualdp.oracle"]),
    ],
    ids=["release", "experiment", "experiment-edge_count", "monotone", "eval", "eval-min_cut",
         "eval-densest_subgraph", "sensitivity"],
)
def test_cli_runs_load_only_what_they_use(tmp_path, args, loaded):
    assert _cli_loaded(tmp_path, args, *LAZY, "numpy", "_hashlib") == loaded


def test_scalar_library_releases_load_no_numpy():
    code = """
from continualdp import GraphFunction, RandomSource, parse_sequence, release
seq = parse_sequence("t=0 +v:0,1,2,3\\nt=1 +e:0-1:2,1-2:1\\nt=2 +e:0-2:1,2-3:3\\n")
for name, kw in [("triangle_count", dict(D=3)), ("mst_weight", dict(W=3))]:
    report = release(seq, GraphFunction(name), 1.0, 0.05, RandomSource(1), **kw)
    assert len(report.records) == 2 and report.max_abs_error >= 0
"""
    assert loaded_modules(code, "numpy", "_hashlib", *REFLECTION) == []


def test_monotone_library_release_loads_no_dataclasses():
    code = """
from continualdp import GraphFunction, RandomSource, monotone_release, parse_sequence
seq = parse_sequence("t=0 +v:0,1,2,3\\nt=1 +e:0-1:2,1-2:1\\nt=2 +e:0-2:1,2-3:3\\n")
report = monotone_release(seq, GraphFunction("min_cut"), 1.0, 0.5, 0.05, RandomSource(1),
                          r=8.0, W=3)
assert [rec.t for rec in report.records] == [1, 2]
"""
    assert loaded_modules(code, *REFLECTION) == []


@pytest.mark.parametrize(
    "args, modules",
    [
        (["release", "--function", "edge_count"], REFLECTION),
        (["experiment", "--function", "edge_count", "--trials", "2"], REFLECTION),
        # numpy imports inspect itself
        (["experiment", "--function", "degree_histogram", "-D", "3", "--trials", "2"],
         ("click", "dataclasses")),
        (["release", "--mechanism", "monotone", "--function", "min_cut", "-W", "1",
          "--range-r", "10"], REFLECTION),
        (["eval", "--function", "edge_count"], REFLECTION),
    ],
    ids=["release", "experiment-edge_count", "experiment", "monotone", "eval"],
)
def test_cli_release_paths_load_no_click_or_dataclasses(tmp_path, args, modules):
    assert _cli_loaded(tmp_path, args, *modules) == []


def test_experiment_leaves_numpy_ma_unloaded(tmp_path):
    # np.quantile would import it, through np.unique, for the summary line
    args = ["experiment", "--function", "degree_histogram", "-D", "3", "--trials", "3"]
    assert _cli_loaded(tmp_path, args, "numpy", "numpy.ma") == ["numpy"]


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["release", "--function", "edge_count"], []),
        (["experiment", "--function", "degree_histogram", "-D", "3", "--trials", "2"],
         ["numpy"]),
        (["experiment", "--function", "edge_count", "--trials", "2"], []),
        (["release", "--mechanism", "monotone", "--function", "min_cut", "-W", "1",
          "--range-r", "10"], []),
        (["eval", "--function", "edge_count"], []),
        (["sensitivity", "--function", "edge_count", "--max-pairs", "20"], []),
    ],
    ids=["release", "experiment", "experiment-edge_count", "monotone", "eval", "sensitivity"],
)
def test_cli_runs_leave_numpy_random_unloaded(tmp_path, args, loaded):
    # noise comes from a SHAKE-256 stream; numpy 1.x loads numpy.random on import
    if loaded_modules("import numpy", "numpy.random"):
        pytest.skip("a bare import numpy loads numpy.random")
    assert _cli_loaded(tmp_path, args, "numpy", "numpy.random") == loaded


def _cli_loaded(tmp_path, args, *modules):
    """Which of ``modules`` a CLI run on a small log leaves loaded."""
    log, out = tmp_path / "seq.txt", tmp_path / "out.csv"
    log.write_text("t=0 +v:0,1,2,3\nt=1 +e:0-1:1,1-2:1\nt=2 +e:2-3:1\nt=3 +e:0-3:1\n")
    if args[0] in ("release", "experiment"):
        args = [*args, "--epsilon", "1", "--delta", "0.05"]
    if args[0] != "sensitivity":  # it draws its own logs
        args = [*args, "--input", str(log)]
    if args[0] != "eval":
        args = [*args, "--seed", "1"]
    loaded = loaded_modules(_CLI.format(args=[*args, "--out", str(out)]), *modules)
    assert out.read_text().count("\n") > 3
    return loaded


def test_every_public_name_resolves():
    code = """
import continualdp as c
assert set(c.__all__) <= set(dir(c))  # before any lazy name is bound
missing = [name for name in c.__all__ if getattr(c, name, None) is None]
assert not missing, missing
assert c.gen_event_level is c.generators.gen_event_level  # bound once, then kept
try:
    c.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no AttributeError")
"""
    assert loaded_modules(code, *LAZY) == list(LAZY)


def test_star_and_module_imports():
    code = """
from continualdp import *
from continualdp import oracle
assert callable(brute_sensitivity) and callable(monotone_release)
assert oracle.brute_sensitivity is brute_sensitivity
"""
    assert loaded_modules(code, *LAZY) == list(LAZY)


def test_release_stays_the_function_after_importing_monotone():
    code = """
import types
import continualdp.monotone
import continualdp
assert callable(continualdp.release) and not isinstance(continualdp.release, types.ModuleType)
"""
    assert loaded_modules(code, *LAZY) == ["continualdp.monotone"]
