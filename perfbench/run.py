#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload profile|ingest|query --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; so do the run's scratch corpora and, with --trace 1,
the Chrome trace. The benchmark's own output passes through; its last
line is the JSON result, checked here against BENCHMARK.json. The exit
code is the benchmark's (1 when an output check failed), or 1 when the
build fails or the result line does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Stays under the 180 s a run may take, build check included.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once, then (re)build; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def check_result(line, trace):
    """Problems with the result line against BENCHMARK.json, if any."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(got) ^ set(wanted)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["profile", "ingest", "query"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(out_dir, "perfbench_selftest")]).returncode

    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_dir, "work"),
               "--trace-dir", os.path.join(out_dir, "traces")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    problems = check_result(lines[-1], args.trace) if lines else [
        "no output"]
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    return run.returncode if run.returncode != 0 or not problems else 1


if __name__ == "__main__":
    sys.exit(main())
