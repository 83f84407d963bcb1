"""Benchmark of the preproj CLI on three seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes the gamma weights written into the quiver files; the
package sees only the files. With --trace 0 the run measures set-up in
fresh interpreters, then runs whole rounds (every job of the workload, in
one fresh worker process per round) until S seconds have passed, and
reports medians over rounds. With --trace 1 it alternates an untraced and
a traced round instead and reports the per-layer metrics of the traced
rounds. The last stdout line is one JSON object: correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import METRICS
from workloads import WORKLOADS, write_jobs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5       # fresh start-ups before each round; setup_s is
                       # the median of all of them
RUN_LIMIT_S = 170      # a run must end within 180 s; a round takes 5-20 s


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set/dict orders in every round
    return env


def measure_setup(quiver_dir, count):
    """Times of count fresh start-ups: interpreter, import preproj.cli,
    every quiver file parsed."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(quiver_dir)]
    env = child_env()
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60,
                       stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def run_round(jobs_file, n_jobs, timeout, spans_file=None):
    """One worker process running every job, traced when spans_file is
    given. Returns its result, with every job counted as failed if the
    worker itself broke."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(jobs_file)]
    cmd += ["1", str(spans_file)] if spans_file else ["0"]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0),
                              stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return {"failures": ["worker timed out"] * n_jobs, "broken": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        msg = "worker exit %d: %s" % (proc.returncode, proc.stderr.strip())
        return {"failures": [msg] * n_jobs, "broken": True}
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "preproj" / "cli.py").is_file():
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_LIMIT_S
    work = OUT / ("%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    spans_file = OUT / ("trace-%s-s%d.jsonl" % (args.workload, args.seed))
    quiver_dir = work / "quivers"
    jobs = write_jobs(args.workload, args.seed, quiver_dir)
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")

    try:
        # the first start-up also writes the bytecode cache; not counted
        measure_setup(quiver_dir, 1)
        setup, rounds, traced = [], [], []
        measured = longest = 0.0
        # whole rounds only; never start one that could overrun the limit
        while not rounds or (measured < args.seconds
                             and deadline - perf_counter() > 2 * longest):
            t_iter = perf_counter()
            if not args.trace:
                # probes spread over the run, so a short change in machine
                # speed moves only a few of them
                setup += measure_setup(quiver_dir, SETUP_PROBES)
            for trace in (False, True) if args.trace else (False,):
                t0 = perf_counter()
                r = run_round(jobs_file, len(jobs), deadline - t0,
                              spans_file if trace else None)
                measured += perf_counter() - t0
                (traced if trace else rounds).append(r)
            longest = max(longest, perf_counter() - t_iter)
            if any(r.get("broken") for r in rounds + traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a broken worker lists every job of its round as failed
    failures = [f for r in rounds + traced for f in r["failures"]]
    for f in failures[:10]:
        print("FAILED %s" % f, file=sys.stderr)
    result = {"correct": not failures,
              "attempted": len(jobs) * len(rounds + traced),
              "failed": len(failures), "metrics": {}}
    plain = [r for r in rounds if not r.get("broken")]
    traced = [r for r in traced if not r.get("broken")]
    med = statistics.median
    if args.trace:
        result["metrics"] = trace_metrics(plain, traced)
    elif plain:
        result["metrics"] = {
            "wall_s": {"value": med(r["wall_s"] for r in plain),
                       "unit": "s"},
            # each job's time is its median over the rounds
            "slowest_job_s": {"value": max(med(ts) for ts in zip(
                *[r["job_s"] for r in plain])), "unit": "s"},
            "peak_rss_mb": {"value": med(r["rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": med(setup), "unit": "s"},
        }
        print("rounds %d, walls %s" % (len(plain), " ".join(
            "%.3f" % r["wall_s"] for r in plain)), file=sys.stderr)
    print(json.dumps(result))
    return 0


def trace_metrics(plain, traced):
    """Per-layer metrics: counts from the last traced round (they repeat
    exactly), times as medians over traced rounds, and the tracing
    overhead as traced minus untraced wall time."""
    if not traced or not plain:
        return {}
    out = {}
    for name, unit in METRICS.items():
        if unit == "s":
            value = statistics.median(r["metrics"][name] for r in traced)
        else:
            value = traced[-1]["metrics"][name]
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    return out


if __name__ == "__main__":
    raise SystemExit(main())
