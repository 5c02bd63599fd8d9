"""Seeded end-to-end and per-layer benchmark of the continual-release library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn.  The run generates its inputs from the seed, then repeats the
workload's job, each in a fresh process, for about S seconds:

* ``--trace 0`` runs untraced jobs, each followed by a reference run
  (REF_COMMAND), and a set-up probe (a fresh interpreter that imports
  continualdp and parses the workload's logs) before every other job.
  It reports the medians of ``wall_rel`` (job time over the mean of the
  reference runs around it), ``setup_s`` (probe time over the same mean,
  in REF_SECONDS units) and ``peak_rss_mb``, and prints the raw median
  job and probe times ``wall_s`` and ``setup_raw_s`` with them;
* ``--trace 1`` alternates an untraced job with a traced one and
  reports the per-layer metrics of the traced jobs (see tracer.py).

Every job's output is checked against references computed from the
generator's own state.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Run it from
the repository root; the library is imported from ``src/``.  All child
processes run on one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 170.0        # every run ends within 180 s
MIN_ITERATIONS = 5          # untraced: at least 5 jobs and 3 set-up probes

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

# A fixed task in a fresh interpreter, timed between untraced jobs: import
# numpy and networkx, then dict updates, small allocations and small numpy
# calls, the same kinds of work the jobs do.  The speed of a shared machine
# drifts by 10-20% over minutes; a job's time divided by the mean of the
# reference runs just before and after it (wall_rel) cancels most of that.
REF_TASK = """\
import numpy as np
import networkx
d = {}
recs = []
a = np.zeros(64)
for i in range(100_000):
    d[i & 4095] = d.get(i & 4095, 0) + i * i
    recs.append((i, float(i), [i]))
    if i % 8 == 0:
        a[i & 63] += 1.0
        int(np.argmax(a))
"""
REF_COMMAND = [sys.executable, "-c", REF_TASK]
# setup_s is the probe time over the mean of the reference runs around it,
# times this fixed duration: the reference task's time on the 2-vCPU VM
# where the benchmark was calibrated.  It reads as seconds on that machine
# and does not follow the machine's drift.
REF_SECONDS = 0.75

SETUP_PROBE = (
    "import sys\n"
    "from pathlib import Path\n"
    "import continualdp\n"
    "for p in sys.argv[1:]:\n"
    "    continualdp.parse_sequence(Path(p).read_text())\n"
)


class _Timeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Timeout


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Starts child processes one at a time and measures each one."""

    def __init__(self, work: Path, hard_deadline: float) -> None:
        self.work = work
        self.hard_deadline = hard_deadline
        self.env = child_env()

    def run(self, cmd: list[str], tag: str) -> tuple[float, int, str]:
        """(wall seconds, exit code, stderr) of one process."""
        err_path = self.work / f"{tag}.stderr"
        with open(self.work / f"{tag}.stdout", "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, max(1.0, self.hard_deadline - perf_counter()))
            try:
                _pid, status = os.waitpid(proc.pid, 0)
            except BaseException as exc:
                # a hung child past the hard deadline, or an interrupt: stop
                # the child and reap it before going on
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.kill()
                _pid, status = os.waitpid(proc.pid, 0)
                if not isinstance(exc, _Timeout):
                    raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, code, err_path.read_text(errors="replace")[-2000:]


class Workload:
    """Files, commands and checks of one workload at one seed."""

    def __init__(self, inputs: wl.Inputs, work: Path) -> None:
        self.inputs = inputs
        self.work = work
        self.logs = {}
        for key, text in inputs.logs.items():
            self.logs[key] = work / f"{key}.log"
            self.logs[key].write_text(text)
        self.out = work / "job.out"
        self.exact = work / "exact.json"
        self.rss = work / "job.rss"
        self.library = inputs.workload in ("local-incremental", "monotone-mixed")
        if self.library:
            spec = {
                "epsilon": wl.EPSILON, "delta": wl.DELTA, "beta": wl.BETA,
                "logs": {k: str(p) for k, p in self.logs.items()},
                "jobs": [{"function": j.function, "log": j.log, "params": j.params,
                          "monotone": j.function in wl.MONOTONE}
                         for j in inputs.jobs],
            }
            self.spec = work / "spec.json"
            self.spec.write_text(json.dumps(spec))

    def cli_args(self) -> list[str]:
        job = self.inputs.jobs[0]
        common = ["--epsilon", str(wl.EPSILON), "--delta", str(wl.DELTA),
                  "--input", str(self.logs["log"]), "--out", str(self.out),
                  "--seed", str(job.params["seed"])]
        if self.inputs.workload == "cli-dynamic":
            return ["release", "--function", job.function, *common]
        return ["experiment", "--function", job.function, "-D", str(job.params["D"]),
                "--trials", str(self.inputs.trials), *common]

    def command(self, trace: Path | None) -> list[str]:
        """The job; a traced job writes trace, an untraced one its peak RSS."""
        opts = ["--trace", str(trace)] if trace else ["--rss", str(self.rss)]
        if self.library:
            mode, args = "lib", [str(self.spec), str(self.out)]
        else:
            mode, args = "cli", self.cli_args()
            if self.inputs.workload == "histogram-trials":
                steps = ",".join(map(str, sorted(self.inputs.jobs[0].refs)))
                opts += ["--exact", str(self.exact), steps]
        return [sys.executable, str(HERE / "child.py"), mode, *opts, "--", *args]

    def setup_command(self) -> list[str]:
        return [sys.executable, "-c", SETUP_PROBE, *map(str, self.logs.values())]

    def check(self, code: int, stderr: str) -> list[str]:
        """Failure reasons of the job that just wrote self.out."""
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        if self.library:
            try:
                result = json.loads(self.out.read_text())
            except (OSError, ValueError) as exc:
                return [f"unreadable result: {exc!r}"]
            return wl.check_library(self.inputs, result)
        if self.inputs.workload == "cli-dynamic":
            return wl.check_cli_release(self.inputs.jobs[0], self.out)
        return wl.check_experiment(self.inputs.jobs[0], self.inputs.trials, self.out, self.exact)


def per_layer(inputs: wl.Inputs, traces: list[dict], traced_walls: list[float],
              untraced_walls: list[float], bytes_written: list[int]) -> dict[str, float]:
    """Means over the traced jobs of one run; self times sum to trace.wall_s."""
    def mean(xs):
        return sum(xs) / len(xs)

    layers = {k: mean([t["layers"][k] for t in traces]) for k in traces[0]["layers"]}
    calls = {k: mean([t["calls"][k] for t in traces]) for k in traces[0]["calls"]}
    keys = {k for t in traces for k in t["counts"]}
    counts = {k: mean([t["counts"].get(k, 0) for t in traces]) for k in keys}
    wall = mean(traced_walls)
    releases = calls["release"] + calls["monotone.release"]
    m = dict(layers)
    m["process.self_s"] = wall - sum(layers.values())
    m.update({
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / statistics.median(untraced_walls) - 1.0,
        "untraced.wall_s": statistics.median(untraced_walls),
        "seqio.lines": counts.get("seqio.lines", 0),
        "graphs.steps_applied": counts.get("graphs.steps_applied", 0),
        "graphs.passes_per_job": counts.get("graphs.passes", 0) / max(releases, 1),
        "functions.evaluate_calls": calls["functions.evaluate"],
        "functions.evaluate_calls_per_step": calls["functions.evaluate"] / inputs.distinct_steps,
        "counting.feed_calls": calls["counting.feed"],
        "counting.psums_released": counts.get("counting.psums_released", 0),
        "noise.laplace_draws": calls["noise.laplace"],
        "monotone.svt_queries": calls["monotone.query"],
        "monotone.svt_tops": counts.get("monotone.svt_tops", 0),
        "monotone.budget_exhausted_jobs": counts.get("monotone.budget_exhausted_jobs", 0),
        "cli.bytes_written": mean(bytes_written),
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 sizes: dict | None = None, mutate=None) -> dict:
    """One benchmark run; returns {"correct", "attempted", "failed", "metrics", ...}.

    ``mutate(workload)`` edits each job's output files before they are
    checked; the self-test uses it to show that the checks catch wrong
    output.
    """
    hard_deadline = perf_counter() + HARD_LIMIT_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        inputs = wl.generate(name, seed, sizes)
        w = Workload(inputs, work)
        runner = Runner(work, hard_deadline)
        # untimed warm-up: byte-compiles the package and fills the page cache
        runner.run(w.setup_command(), "warmup")

        walls, rels, rss, setups, setup_raw = [], [], [], [], []
        traced_walls, traces, written = [], [], []
        attempted = failed = 0
        setup_failures: list[str] = []
        failures: list[str] = []

        def job(trace_path: Path | None) -> float:
            nonlocal attempted, failed
            for path in (w.out, w.exact, w.rss):
                path.unlink(missing_ok=True)
            wall, code, err = runner.run(w.command(trace_path), "job")
            if mutate is not None and code == 0:
                mutate(w)
            errs = w.check(code, err)
            if trace_path is None and code == 0:
                try:
                    rss.append(float(w.rss.read_text()))
                except (OSError, ValueError) as exc:
                    errs.append(f"peak RSS not recorded: {exc!r}")
            attempted += 1
            if errs:
                failed += 1
                failures.extend(errs[:3])
            return wall

        refs = [] if trace else [runner.run(REF_COMMAND, "ref")[0]]
        start = perf_counter()
        iterations = 0
        while True:
            t_iter = perf_counter()
            if trace:
                walls.append(job(None))
                tpath = work / "trace.json"
                tpath.unlink(missing_ok=True)
                wall = job(tpath)
                traced_walls.append(wall)
                written.append(w.out.stat().st_size if not w.library and w.out.exists() else 0)
                if tpath.exists():
                    traces.append(json.loads(tpath.read_text()))
            else:
                swall = None
                if iterations % 2 == 0:
                    swall, code, err = runner.run(w.setup_command(), "setup")
                    if code != 0:
                        setup_failures.append(f"set-up probe exit code {code}: {err[-300:]}")
                wall = job(None)
                refs.append(runner.run(REF_COMMAND, "ref")[0])
                ref_mean = (refs[-2] + refs[-1]) / 2.0
                walls.append(wall)
                rels.append(wall / ref_mean)
                if swall is not None:
                    setup_raw.append(swall)
                    setups.append(REF_SECONDS * swall / ref_mean)
            iterations += 1
            now = perf_counter()
            need = 1 if trace else MIN_ITERATIONS
            if now >= hard_deadline - 2 * (now - t_iter):
                break
            if iterations >= need and now - start + (now - start) / iterations > seconds:
                break

        correct = failed == 0 and not setup_failures and (not trace or bool(traces))
        spans = None
        if trace and traces:
            metrics = per_layer(inputs, traces, traced_walls, walls, written)
            units = PER_LAYER_UNITS
            # keep the spans of the last traced job once the run's files are gone
            spans = WORK / f"spans-{name}-{seed}.json"
            spans.write_text(json.dumps(traces[-1]["spans"]))
        elif trace:
            metrics, units = {}, PER_LAYER_UNITS
        else:
            metrics = {
                "wall_rel": statistics.median(rels),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
            }
            units = END_TO_END_UNITS
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "wall_s": statistics.median(walls),
            "setup_raw_s": statistics.median(setup_raw) if setup_raw else None,
            "samples": {"jobs": len(walls), "setup": len(setups), "traced": len(traced_walls)},
            "spans": spans,
            "failures": setup_failures + failures,
        }
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(work, ignore_errors=True)


END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.continualdp_s": "s",
    "seqio.parse_s": "s",
    "seqio.lines": "count",
    "graphs.validate_s": "s",
    "graphs.apply_s": "s",
    "graphs.max_degree_s": "s",
    "graphs.steps_applied": "count",
    "graphs.passes_per_job": "ratio",
    "functions.evaluate_s": "s",
    "functions.evaluate_calls": "count",
    "functions.evaluate_calls_per_step": "ratio",
    "counting.feed_s": "s",
    "counting.feed_calls": "count",
    "counting.psums_released": "count",
    "noise.laplace_s": "s",
    "noise.laplace_draws": "count",
    "monotone.svt_queries": "count",
    "monotone.svt_tops": "count",
    "monotone.budget_exhausted_jobs": "count",
    "monotone.process_s": "s",
    "release.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "process.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "untraced.wall_s": "s",
}


def environment() -> dict:
    """Versions and machine facts recorded with every result."""
    import networkx
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
    }


def summary_line(name: str, res: dict) -> str:
    m = {k: v["value"] for k, v in res["metrics"].items()}
    rate = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    m["wall_s"] = res["wall_s"]
    if res["setup_raw_s"] is not None:
        m["setup_raw_s"] = res["setup_raw_s"]
    parts = [f"{k}={v:.6g}" for k, v in m.items()]
    return (f"{name}: " + " ".join(parts) + f" error_rate={rate:.4g}"
            f" ({res['failed']}/{res['attempted']} jobs failed; samples {res['samples']})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "continualdp" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Jobs and reference runs share one CPU, so wall_rel compares like with like.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary_line(name, res))
        if res["spans"] is not None:
            print(f"  spans of the last traced job: {res['spans'].relative_to(ROOT)}")
        for reason in res["failures"][:10]:
            print(f"  failure: {reason}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
