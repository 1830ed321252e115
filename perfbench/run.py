#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload batch_tcp --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (Release) into .bench_build,
runs the benchmark program and prints its metric table followed, as the last
line, by one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json.
--trace 1 runs the workload twice, untraced and traced, reports the per-layer
metrics from the traced process plus trace.overhead_ratio (traced / untraced
tasks_per_s), and leaves the spans in .bench_build/traces/ as Chrome-trace
JSON. Exits non-zero when the build, the run or the output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SOURCE = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench", "falkon_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    cmake_dir = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "falkon_perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, timeout=850).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_workload(args, trace, timeout_s):
    scratch = os.path.join(BUILD, "scratch", "%s-%d-%d" % (args.workload, os.getpid(), trace))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scratch", scratch]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, timeout_s))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output from the benchmark program (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unreadable result line: " + lines[-1])
    result["exit"] = proc.returncode
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    timeout_s = 3 * args.seconds + 40
    base = run_workload(args, 0, timeout_s)
    runs = [base]
    if args.trace:
        traced = run_workload(args, 1, timeout_s)
        runs.append(traced)
        traced["metrics"]["trace.overhead_ratio"] = {
            "value": traced["metrics"]["tasks_per_s"]["value"]
            / base["metrics"]["tasks_per_s"]["value"],
            "unit": "ratio",
        }
        wanted, source = spec["per_layer"], traced["metrics"]
    else:
        wanted, source = spec["end_to_end"], base["metrics"]

    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail("metrics missing from the program's output: " + ", ".join(missing))
    if args.trace:
        print("%-40s %14.6f ratio" % ("trace.overhead_ratio",
                                      source["trace.overhead_ratio"]["value"]))
    correct = all(r["correct"] and r["exit"] == 0 for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: source[m["name"]] for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
