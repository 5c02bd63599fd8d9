"""Byte-for-byte pins of the CLI release output.

Each log is built here from a fixed seed, so the test covers the whole
path: serializing, parsing, replaying, releasing and writing the CSV.
The files under ``tests/golden`` hold the expected bytes; rewrite them
only for a change that is meant to alter what a seed releases.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from continualdp import RandomSource, serialize_sequence
from continualdp.cli import main

from conftest import random_sequence

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
}


def _release(tmp_path: Path, kind: str, args: list[str]) -> bytes:
    seq = random_sequence(RandomSource(808), n_max=8, T_max=40, kind=kind)
    log = tmp_path / "seq.log"
    log.write_text(serialize_sequence(seq))
    out = tmp_path / "release.csv"
    result = CliRunner().invoke(
        main,
        ["release", *args, "--epsilon", "1", "--delta", "0.05",
         "--input", str(log), "--seed", "17", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_release_output_is_pinned(tmp_path, name):
    kind, args = CASES[name]
    assert _release(tmp_path, kind, args) == (GOLDEN / f"{name}.csv").read_bytes()
