#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its one-line result.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call builds the benchmark (the
dynasparse library plus perfbench/*.cpp, Release) into .bench_build/perfbench;
later calls rebuild only what changed. The perfbench binary prints the phase
accounting and the full metric table; this script then prints, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end_to_end metrics of BENCHMARK.json with --trace 0, the per_layer
metrics with --trace 1. Exit code 0 only when every answer was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=sys.stdout, stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.flush()

    path = os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    try:
        with open(path) as f:
            result = json.load(f)
    except (OSError, ValueError) as e:
        fail("no result (exit code %d): %s" % (proc.returncode, e))

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("run did not report end-to-end metric " + m["name"])
            # A layer this workload does not exercise reads 0.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
