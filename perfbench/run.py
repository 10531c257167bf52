"""Benchmark of the `salpeter-bounds` CLI: end-to-end metrics or a layer trace.

    python3 perfbench/run.py --workload ws-bounds --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; nothing needs installing.  Every
command runs in a child process (`python -m salpeterbounds.cli_report` with
PYTHONPATH=src), inside a temporary directory under `.perfbench_tmp/` that is
removed at the end.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; progress and the reason
for every failed operation go to standard error.

--trace 0 measures set-up, then repeats whole rounds of the workload until
--seconds are used (at least one round), and reports medians over rounds:
  wall_s       wall time of one round's commands
  cpu_s        user + system CPU of those child processes
  peak_rss_mb  largest resident set of any child in the round
  setup_s      median time for a fresh process to import the package and
               print the CLI help, over SETUP_REPEATS processes
--trace 1 runs the round once untraced and once under tracer.py at
threads=1 (for ws-bounds also once at threads=2, whose CSV must be
byte-identical), and reports the per-layer metrics of the traced round plus
trace_overhead_s = traced wall - untraced wall at the same thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import tracer  # noqa: E402
from workloads import FAULT, OK, WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# every child is killed once the run has used this much time, so a hung
# command cannot hold the run past its limit
RUN_LIMIT_S = 170.0


class Runner:
    """Starts CLI children and measures each one with wait4."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("SALPETER_THREADS", None)  # it would override the workload's threads
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def spawn(self, argv: list[str], cwd: Path, label: str):
        """Run argv to completion; returns (wall s, cpu s, max rss MB, Outcome)."""
        out_path, err_path = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            remaining = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(proc.returncode, out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, outcome

    def round(self, workload, tag: str, threads: int | None = None, spans: bool = False) -> dict:
        """One round of the workload's commands in a fresh directory."""
        outdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=self.tmp))
        result = {"dir": outdir, "wall": 0.0, "cpu": 0.0, "rss": 0.0, "outcomes": {}, "spans": []}
        for cmd in workload.commands(threads):
            if spans:
                span_file = outdir / f"{cmd.label}.spans.json"
                argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(span_file)] + cmd.args
            else:
                argv = [sys.executable, "-m", "salpeterbounds.cli_report"] + cmd.args
            wall, cpu, rss, outcome = self.spawn(argv, outdir, cmd.label)
            result["wall"] += wall
            result["cpu"] += cpu
            result["rss"] = max(result["rss"], rss)
            result["outcomes"][cmd.label] = outcome
            if spans and span_file.exists():
                result["spans"].append(json.loads(span_file.read_text()))
        return result

    def setup_times(self) -> list[float]:
        """Wall time of fresh processes that import the package and print
        the CLI help; the first, which warms the file cache, is dropped."""
        argv = [sys.executable, "-m", "salpeterbounds.cli_report", "--help"]
        times = []
        for i in range(SETUP_REPEATS + 1):
            wall, _, _, outcome = self.spawn(argv, self.tmp, f"setup{i}")
            if outcome.returncode != 0:
                raise RuntimeError(f"CLI did not start: {outcome.stderr.strip()}")
            times.append(wall)
        return times[1:]


def grade(workload, rounds: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over the rounds; misses go to stderr."""
    attempted = failed = 0
    correct = True
    for rnd in rounds:
        for name, status, reason in workload.check(rnd["dir"], rnd["outcomes"]).ops:
            attempted += 1
            if status != OK:
                failed += 1
                correct = correct and status == FAULT
                print(f"[{workload.name}] {rnd['dir'].name}/{name}: {status}: {reason}", file=sys.stderr)
    return attempted, failed, correct


def measure(runner: Runner, workload, seconds: float):
    setup = runner.setup_times()
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(runner.round(workload, f"r{len(rounds)}"))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in rounds)
        print(f"[{workload.name}] round {len(rounds)}: {rounds[-1]['wall']:.2f} s", file=sys.stderr)
        if elapsed + typical > seconds:  # the next round would overrun
            break
    attempted, failed, correct = grade(workload, rounds)
    metrics = {
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in rounds), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return attempted, failed, correct, metrics


def trace(runner: Runner, workload):
    plain = runner.round(workload, "plain", threads=1)
    traced = runner.round(workload, "traced", threads=1, spans=True)
    rounds = [plain, traced]
    attempted, failed, correct = grade(workload, rounds)
    if workload.IDENTITY_THREADS:
        # byte-identical CSV for any thread count: the identity thread
        # count against the traced threads=1 round
        own = runner.round(workload, "own", threads=workload.IDENTITY_THREADS)
        a, f, c = grade(workload, [own])
        attempted, failed, correct = attempted + a + 1, failed + f, correct and c
        mismatched = []
        for path in sorted(own["dir"].rglob("*.csv")):
            twin = traced["dir"] / path.relative_to(own["dir"])
            if not twin.exists() or twin.read_bytes() != path.read_bytes():
                mismatched.append(path.name)
        if mismatched:
            failed += 1
            correct = False
            print(f"[{workload.name}] CSV differs between threads={workload.IDENTITY_THREADS} and 1: {mismatched}",
                  file=sys.stderr)
    layers = tracer.layer_metrics([])
    for spans in traced["spans"]:
        for key, value in tracer.layer_metrics(spans).items():
            layers[key] = max(layers[key], value) if key.endswith("_max") else layers[key] + value
    layers["cli_report.rows"] = workload.csv_rows(traced["dir"])
    layers["trace_overhead_s"] = traced["wall"] - plain["wall"]
    metrics = {key: (value, "s" if key.endswith("_s") or key.endswith(".s") else "count")
               for key, value in layers.items()}
    return attempted, failed, correct, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "salpeterbounds" / "cli_report.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        runner = Runner(tmp)
        if args.trace:
            attempted, failed, correct, metrics = trace(runner, workload)
        else:
            attempted, failed, correct, metrics = measure(runner, workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
