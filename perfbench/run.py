#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload census_query --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Builds perfbench (the maywsd libraries
from the checkout's sources plus the benchmark binary in perfbench/src)
in Release under $CARGO_TARGET_DIR (default .bench_build), runs the
workload, checks the metric names and units against BENCHMARK.json, and
prints as the last line of standard output one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. The full result (environment,
structural counters, notes, self-time tables) and, for traced runs, the
raw spans are kept in <build dir>/results/. Exits non-zero when any
output check failed.

--corrupt deliberately corrupts one answer before it is checked; the
benchmark's own test (perfbench/test_perfbench.py) uses it to show that a
wrong answer makes the run fail.
"""

import argparse
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DEADLINE_S = 170  # the run itself, after the build


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build():
    """Configures (once) and builds perfbench; returns the executable."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the maywsd sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from the root of a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, multiprocessing.cpu_count()))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    exe = os.path.join(bdir, "perfbench")
    if not os.path.isfile(exe):
        fail("build produced no perfbench executable")
    return exe


def check_metrics(result, expected):
    """Returns a list of problems with the reported metrics."""
    problems = []
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s missing" % name)
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append("metric %s is not a finite number" % name)
        elif m.get("unit") != unit:
            problems.append("metric %s has unit %s, want %s"
                            % (name, m.get("unit"), unit))
    for name in metrics:
        if name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    start = time.monotonic()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + ".spans.tsv"]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_DEADLINE_S)
    sys.stdout.write(proc.stdout)
    if not os.path.isfile(stem + ".json"):
        fail("perfbench exited with %d and wrote no result" % proc.returncode)
    with open(stem + ".json") as f:
        result = json.load(f)

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(result, expected)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = proc.returncode == 0 and failed == 0 and not problems
    print("# env: " + json.dumps(dict(result["env"], seed=args.seed,
                                      workload=args.workload)))
    for note in result.get("notes", []):
        print("# " + note)
    if attempted:
        print("# error_rate: %.6g (%d failed of %d checked operations)"
              % (failed / attempted, failed, attempted))
    print("# wall: %.1f s; full result in %s.json"
          % (time.monotonic() - start, stem))
    metrics = {m["name"]: result["metrics"][m["name"]] for m in expected
               if m["name"] in result.get("metrics", {})}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
