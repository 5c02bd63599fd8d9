"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/tests

Shows that every workload runs clean, that the traced run's wrappers
leave only a small untraced residual, that wrong output counts as a
failed job, and that the seed alone determines the inputs.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
RESIDUAL_SHARE = 0.5
BALLAST_MB = 192
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

def tiny(name, trace=False, mutate=None, seed=5):
    return run.run_workload(name, seed, 0.1, trace, sizes=wl.TINY, mutate=mutate)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_workload_runs_clean(name):
    res = tiny(name)
    assert res["correct"], res["failures"]
    assert res["failed"] == 0 and res["attempted"] >= run.MIN_ITERATIONS
    assert set(res["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_layers_cover_the_job(name):
    res = tiny(name, trace=True)
    assert res["correct"], res["failures"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(m) == set(run.PER_LAYER_UNITS)
    # process.self_s is the traced wall time no wrapper covers: interpreter
    # start-up and exit and the job script, about 0.3 of the wall time at
    # these sizes.  A wrapper that double-counts drives it below 0; leaving
    # out a top-level span (import, release, cli) drives it past the bound.
    assert 0 < m["process.self_s"] < RESIDUAL_SHARE * m["trace.wall_s"]
    assert m["import.continualdp_s"] > 0 and m["seqio.parse_s"] > 0
    assert m["functions.evaluate_calls_per_step"] == (
        wl.TINY[name]["trials"] if name == "histogram-trials" else 1)
    assert (m["cli.bytes_written"] > 0) == (name in ("cli-dynamic", "histogram-trials"))
    assert (m["monotone.svt_queries"] > 0) == (name == "monotone-mixed")
    assert (m["counting.feed_calls"] > 0) == (name != "monotone-mixed")


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[head].split(",")
    rows = [line.split(",") for line in lines[head + 1:]]
    rows = edit(cols, rows)
    path.write_text("\n".join(lines[:head + 1] + [",".join(r) for r in rows]) + "\n")


def _edit_json(path: Path, edit) -> None:
    out = json.loads(path.read_text())
    edit(out)
    path.write_text(json.dumps(out))


def shift_released(w) -> None:
    def edit(cols, rows):
        i = cols.index("released")
        rows[len(rows) // 2][i] = str(float(rows[len(rows) // 2][i]) + 1e6)
        return rows
    _edit_csv(w.out, edit)


def drop_row(w) -> None:
    _edit_csv(w.out, lambda cols, rows: rows[:-1])


def wrong_exact(w) -> None:
    def edit(out):
        out["jobs"][0]["true"][-1] += 1
    _edit_json(w.out, edit)


def drop_library_row(w) -> None:
    def edit(out):
        for key in ("t", "true", "released"):
            out["jobs"][-1][key].pop()
    _edit_json(w.out, edit)


def off_ladder(w) -> None:
    """One monotone output that is not a power of 1 + beta."""
    def edit(out):
        out["jobs"][0]["released"][len(out["jobs"][0]["released"]) // 2] = 2.0
    _edit_json(w.out, edit)


def falling_ladder(w) -> None:
    """Valid ladder values that fall: the top rung first, the bottom one last."""
    def edit(out):
        released = out["jobs"][0]["released"]
        released[0], released[-1] = (1 + wl.BETA) ** w.inputs.jobs[0].budget, 1.0
    _edit_json(w.out, edit)


def wrong_histogram(w) -> None:
    """One bin of the last trial's last recorded histogram is off by one."""
    def edit(out):
        last = out["trials"][-1]
        last[max(last, key=int)][0] += 1
    _edit_json(w.exact, edit)


@pytest.mark.parametrize("name, mutate", [
    ("cli-dynamic", shift_released),
    ("cli-dynamic", drop_row),
    ("histogram-trials", drop_row),
    ("histogram-trials", wrong_histogram),
    ("local-incremental", wrong_exact),
    ("monotone-mixed", wrong_exact),
    ("monotone-mixed", drop_library_row),
    ("monotone-mixed", off_ladder),
    ("monotone-mixed", falling_ladder),
])
def test_wrong_output_counts_as_failed(name, mutate):
    res = tiny(name, mutate=mutate)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_peak_rss_is_the_jobs_own():
    """A large benchmark process does not show up in its jobs' peak RSS,
    as it would through ru_maxrss."""
    ballast = bytearray(BALLAST_MB << 20)
    ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))  # make it resident
    res = tiny("local-incremental")
    assert res["correct"], res["failures"]
    assert res["metrics"]["peak_rss_mb"]["value"] < BALLAST_MB * 0.75
    del ballast


def test_checks_reject_out_of_bound_and_non_finite_values():
    inputs = wl.generate("local-incremental", 5, wl.TINY)
    job = inputs.jobs[0]
    ts = list(range(1, job.T + 1))
    true = [job.refs.get(t, 0) for t in ts]
    assert wl.check_release(job, ts, [float(v) for v in true], true) == []
    far = [v + job.bound * 1.01 for v in true]
    assert wl.check_release(job, ts, far, true)
    assert wl.check_release(job, ts, [math.nan] * job.T, true)


def test_monotone_checks_ladder_and_order():
    inputs = wl.generate("monotone-mixed", 5, wl.TINY)
    fwd, rev = inputs.jobs[0], inputs.jobs[2]
    assert rev.params["reverse"] and fwd.budget >= 2
    rungs = [(1 + wl.BETA) ** min(t // 3, fwd.budget) for t in range(1, fwd.T + 1)]
    check = wl.check_ladder
    assert check(fwd, rungs) == []
    assert check(rev, rungs[::-1]) == []
    assert check(fwd, rungs[::-1])                                   # falls
    assert check(rev, rungs)                                         # falls when reversed
    assert check(fwd, rungs[:-1] + [2.0])                            # off the ladder
    assert check(fwd, rungs[:-1] + [(1 + wl.BETA) ** (fwd.budget + 1)])  # past the budget
    assert check(fwd, [0.5] + rungs[1:])                             # below the base


def test_seed_determines_inputs():
    for name in wl.WORKLOADS:
        a = wl.generate(name, 1, wl.TINY)
        assert a.logs == wl.generate(name, 1, wl.TINY).logs
        assert a.logs != wl.generate(name, 2, wl.TINY).logs


def test_references_match_generator_state():
    text, snaps = wl.gen_incremental(random.Random(0), 10, 20, 1, D=4)
    last = snaps[20]
    assert sum(wl.ref_histogram(10, last)) == 10
    assert wl.ref_kstar2(10, last) == sum(d * (d - 1) // 2 for d in wl.ref_degrees(10, last))
    assert max(wl.ref_degrees(10, last)) <= 4
    assert text.count("\n") == 21


def test_fails_without_library_sources(tmp_path):
    """A directory holding only the benchmark exits non-zero, printing no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-dynamic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
